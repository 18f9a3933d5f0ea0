// Package ycsb generates YCSB-style key-value workloads: uniform and
// Zipfian key distributions with configurable read/write mixes, matching
// the paper's experimental setup (Sec. 4): 8-byte keys and values, tables
// prefilled with half the key space, and write operations split 50/50
// between inserts and removes so structure sizes stay stable.
package ycsb

import (
	"math"
	"sync"
)

// OpKind classifies one generated operation.
type OpKind int

const (
	// OpRead looks a key up.
	OpRead OpKind = iota
	// OpInsert inserts or updates a key.
	OpInsert
	// OpRemove deletes a key.
	OpRemove
)

// Mix describes an operation mix. ReadPct is the percentage of reads; the
// remainder is split evenly between inserts and removes, unless
// InsertOnly sends all of it to inserts (YCSB D/F's insert-only write
// tail).
type Mix struct {
	ReadPct    int
	InsertOnly bool
}

// Standard mixes from the paper's evaluation.
var (
	// WriteHeavy is the 20% read / 80% write mix (Fig. 1, 3, 5, 6 left).
	WriteHeavy = Mix{ReadPct: 20}
	// ReadHeavy is the 90% read / 10% write mix (Fig. 3, 6 right).
	ReadHeavy = Mix{ReadPct: 90}
	// WriteOnly is a 100% write mix.
	WriteOnly = Mix{ReadPct: 0}
)

// Workloads are the standard YCSB core mixes by letter, A–D and F: no
// served structure scans, so the scan-heavy E is left out. C is pure
// reads; D takes its write share as pure inserts; F models
// read-modify-write as a 50/50 read/insert mix at the KV level (the
// upsert carries the modified value).
var Workloads = map[string]Mix{
	"A": {ReadPct: 50},
	"B": {ReadPct: 95},
	"C": {ReadPct: 100},
	"D": {ReadPct: 95, InsertOnly: true},
	"F": {ReadPct: 50, InsertOnly: true},
}

// WorkloadMix resolves a YCSB workload letter (case-insensitive).
func WorkloadMix(name string) (Mix, bool) {
	if len(name) == 1 && name[0] >= 'a' && name[0] <= 'z' {
		name = string(name[0] - 'a' + 'A')
	}
	m, ok := Workloads[name]
	return m, ok
}

// DefaultZipfian is the Zipfian constant used throughout the paper.
const DefaultZipfian = 0.99

// Generator produces a deterministic stream of operations for one thread.
// Distinct threads should use distinct seeds.
type Generator struct {
	rng  splitMix
	zipf *Zipfian // nil for uniform
	n    uint64   // key-space size
	mix  Mix
}

// NewUniform creates a generator drawing keys uniformly from [0, n).
func NewUniform(n uint64, mix Mix, seed uint64) *Generator {
	return &Generator{rng: splitMix{seed ^ 0x9e3779b97f4a7c15}, n: n, mix: mix}
}

// NewZipfian creates a generator drawing keys from [0, n) with a Zipfian
// distribution of the given theta (0.99 in the paper unless noted).
// Distribution constants for a given (n, theta) are computed once and
// cached, so per-thread generators are cheap.
func NewZipfian(n uint64, theta float64, mix Mix, seed uint64) *Generator {
	return &Generator{
		rng:  splitMix{seed ^ 0x9e3779b97f4a7c15},
		zipf: cachedZipfian(n, theta),
		n:    n,
		mix:  mix,
	}
}

// Next returns the next operation. Values are derived from the key so that
// verification code can recompute them.
func (g *Generator) Next() (OpKind, uint64, uint64) {
	r := g.rng.next()
	var k uint64
	if g.zipf != nil {
		k = g.zipf.Sample(&g.rng)
	} else {
		k = g.rng.next() % g.n
	}
	v := k*2654435761 + 12345
	pct := int(r % 100)
	switch {
	case pct < g.mix.ReadPct:
		return OpRead, k, 0
	case g.mix.InsertOnly || (pct-g.mix.ReadPct)%2 == 0:
		return OpInsert, k, v
	default:
		return OpRemove, k, 0
	}
}

// PrefillKeys returns every even key in [0, n) — "half of the key space",
// the paper's prefill population.
func PrefillKeys(n uint64) []uint64 {
	keys := make([]uint64, 0, n/2)
	for k := uint64(0); k < n; k += 2 {
		keys = append(keys, k)
	}
	return keys
}

// splitMix is splitmix64, a tiny fast PRNG.
type splitMix struct{ s uint64 }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0,1).
func (r *splitMix) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// Zipfian samples a Zipfian distribution over [0, n) using the Gray et al.
// "Quickly generating billion-record synthetic databases" algorithm, the
// same method YCSB uses. Construction is O(n) once; sampling is O(1).
type Zipfian struct {
	n            uint64
	theta        float64
	alpha        float64
	zetan, zeta2 float64
	eta          float64
	scramble     bool
}

// NewZipfianDist precomputes constants for key-space size n and skew theta.
func NewZipfianDist(n uint64, theta float64) *Zipfian {
	z := &Zipfian{n: n, theta: theta, scramble: true}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	// Exact summation up to a threshold, then an Euler–Maclaurin
	// integral approximation: the tail of sum(1/i^theta) from m to n is
	// very close to (n^(1-theta) - m^(1-theta))/(1-theta) for theta < 1.
	const exact = 1 << 20
	if n <= exact {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1.0 / math.Pow(float64(i), theta)
		}
		return sum
	}
	sum := zeta(exact, theta)
	om := 1 - theta
	sum += (math.Pow(float64(n), om) - math.Pow(float64(exact), om)) / om
	return sum
}

var (
	zipfCacheMu sync.Mutex
	zipfCache   = map[[2]uint64]*Zipfian{}
)

// cachedZipfian memoizes distribution constants per (n, theta).
func cachedZipfian(n uint64, theta float64) *Zipfian {
	key := [2]uint64{n, math.Float64bits(theta)}
	zipfCacheMu.Lock()
	defer zipfCacheMu.Unlock()
	if z, ok := zipfCache[key]; ok {
		return z
	}
	z := NewZipfianDist(n, theta)
	zipfCache[key] = z
	return z
}

// Sample draws the next key.
func (z *Zipfian) Sample(r *splitMix) uint64 {
	u := r.float64()
	uz := u * z.zetan
	var k uint64
	switch {
	case uz < 1.0:
		k = 0
	case uz < 1.0+math.Pow(0.5, z.theta):
		k = 1
	default:
		k = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if k >= z.n {
		k = z.n - 1
	}
	if z.scramble {
		// FNV-style scramble spreads hot keys across the key space, as
		// YCSB's ScrambledZipfian does.
		k = (k * 0xc6a4a7935bd1e995) % z.n
	}
	return k
}

// NewZipfianDistUnscrambled is NewZipfianDist without key scrambling, so
// key 0 is the hottest. Useful for locality-sensitive experiments.
func NewZipfianDistUnscrambled(n uint64, theta float64) *Zipfian {
	z := NewZipfianDist(n, theta)
	z.scramble = false
	return z
}
