package main

import (
	"math"
	"time"
)

// spec is one workload: which surface it drives, how much data, which op
// mix and key distribution, and the epoch/latency/HTM configuration. The
// table mirrors BENCHMARK.json's "workloads" and the README.
type spec struct {
	name     string
	served   bool
	keyspace uint64 // power of two; half of it is live after prefill
	getPct   int
	putPct   int // the rest are deletes
	zipf     bool
	epochLen time.Duration
	latency  bool // Optane latency profile on the heap
	slowpath bool // htm.Config{SpuriousRate: 1}: every op takes the fallback session
	conns    int  // served: connections; 0 = nproc
	window   int  // served: outstanding requests per connection
}

var specs = []spec{
	{name: "embed_write", keyspace: 1 << 20, getPct: 20, putPct: 40, epochLen: 50 * time.Millisecond, latency: true},
	{name: "embed_hot", keyspace: 1 << 20, getPct: 95, putPct: 5, zipf: true, epochLen: 50 * time.Millisecond},
	{name: "embed_slowpath", keyspace: 1 << 20, getPct: 50, putPct: 25, epochLen: 50 * time.Millisecond, slowpath: true},
	{name: "serve_pipelined", served: true, keyspace: 1 << 20, getPct: 50, putPct: 25, epochLen: 2 * time.Millisecond, window: 32},
	{name: "serve_rtt", served: true, keyspace: 1 << 20, getPct: 50, putPct: 25, epochLen: 2 * time.Millisecond, conns: 1, window: 1},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDel
)

var kindNames = [3]string{"get", "put", "del"}

// mix64 is the splitmix64 finaliser: a cheap bijective scrambler.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// rng is splitmix64. The whole op stream derives from it, so a stream is a
// pure function of its seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfian draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta (Gray et
// al.'s generator, as used by YCSB).
type zipfian struct {
	n, alpha, zetan, eta float64
	half                 float64 // 0.5^theta
}

func newZipfian(n uint64, theta float64) *zipfian {
	var zetan float64
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipfian{
		n:     float64(n),
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:  math.Pow(0.5, theta),
	}
}

func (z *zipfian) next(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	return uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// plan fixes everything about a run's inputs: the workload, the seed and
// the (scaled) data size. Streams, the prefill set and value tags are all
// functions of it.
type plan struct {
	sp       *spec
	seed     uint64
	scale    float64 // at most 1: shrinks sizes, durations and op counts (tests)
	keyspace uint64
	live     uint64 // prefilled keys: keyspace/2
	zipf     *zipfian
}

func newPlan(sp *spec, seed uint64, scale float64) *plan {
	scale = math.Min(scale, 1)
	ks := sp.keyspace
	for ks > 1<<10 && float64(ks) > float64(sp.keyspace)*scale {
		ks >>= 1
	}
	p := &plan{sp: sp, seed: mix64(seed ^ 0xbd1bd1), scale: scale, keyspace: ks, live: ks / 2}
	if sp.zipf {
		p.zipf = newZipfian(p.live, 0.99)
	}
	return p
}

// scaled shrinks a count by the plan's scale, down to floor.
func (p *plan) scaled(n, floor int) int { return max(floor, int(float64(n)*p.scale)) }

// seconds shrinks a duration, given in seconds, by the plan's scale.
func (p *plan) seconds(s float64) time.Duration {
	return time.Duration(s * p.scale * float64(time.Second))
}

// liveKey is the i-th prefilled key: one of each adjacent pair, picked by
// the seed, so exactly half the key space is live and the set needs no table.
func (p *plan) liveKey(i uint64) uint64 { return 2*i + mix64(p.seed^i)&1 }

// value builds the value a writer stores under k: a tag bound to the key in
// the high half, the writer's sequence number in the low half. Any value
// read back for k must carry k's tag.
func (p *plan) value(k uint64, seq uint32) uint64 {
	return mix64(p.seed+k)&^0xffffffff | uint64(seq)
}

func (p *plan) valueOK(k, v uint64) bool { return v>>32 == mix64(p.seed+k)>>32 }

// stream is one issuer's op sequence: a pure function of (plan, worker, phase).
type stream struct {
	p   *plan
	r   rng
	seq uint32
}

// Phases keep warm-up, the two measured passes and the drill cycles on
// distinct streams of the same seed.
const (
	phaseWarm = iota
	phaseMeasure
	phaseTraced
	phaseDrill // + cycle
)

func (p *plan) stream(worker, phase int) *stream {
	return &stream{p: p, r: rng{s: mix64(p.seed ^ uint64(worker+1)<<32 ^ uint64(phase+1)<<48)}, seq: uint32(worker+1) << 28}
}

func (s *stream) next() (kind opKind, key, val uint64) {
	p := s.p
	r := s.r.next()
	switch pct := int(r >> 33 % 100); {
	case pct < p.sp.getPct:
		kind = opGet
	case pct < p.sp.getPct+p.sp.putPct:
		kind = opPut
	default:
		kind = opDel
	}
	if p.zipf != nil {
		key = p.liveKey(mix64(p.zipf.next(&s.r)) & (p.live - 1))
	} else {
		key = s.r.next() & (p.keyspace - 1)
	}
	if kind == opPut {
		s.seq++
		val = p.value(key, s.seq)
	}
	return kind, key, val
}

// streamHash folds the first n ops of a stream into one word; the plan
// determinism test compares it across seeds.
func (p *plan) streamHash(worker, phase, n int) uint64 {
	s := p.stream(worker, phase)
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < n; i++ {
		kind, key, val := s.next()
		h = mix64(h ^ uint64(kind) ^ key<<2 ^ val)
	}
	return h
}
