package crashfuzz

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// DefaultHeapWords sizes fuzzing heaps: small enough that rounds are fast,
// large enough that slab formatting and directory growth are exercised.
const DefaultHeapWords = 1 << 16

// RoundParams describes one fuzz round. Zero/negative fields marked
// "derive" are filled deterministically from Seed by Resolve, in a fixed
// draw order, so that an explicit override never shifts the values derived
// for the other fields (replays of shrunk rounds stay aligned with the
// original op stream).
type RoundParams struct {
	Subject string
	Seed    uint64
	Ops     int // ops per worker per crash segment (0 = derive)
	Workers int // 0 = derive (1 or 4)

	KeySpace     uint64  // 0 = derive from {16, 64, 256}
	Evict        float64 // <0 = derive in [0, 1]
	CrashEvents  int     // 0 = derive (1 or 2)
	CrashAfter   int     // <0 = derive in [0, Ops]
	CrashStep    int     // <0 = derive; 0 = crash at an op boundary; n>0 = power-fail at the nth persist event past the crash point (single-writer only)
	TailAdvances int     // <0 = derive in [0, 3]
	AdvEvery     int     // <0 = derive in [4, 32]
	Spurious     float64 // <0 = derive from {0, 0.01, 0.05}
	MemType      float64 // <0 = derive from {0, 0.01}
	Async        int     // <0 = derive; schedule: flusher step runs right after each advance (1) or lags a full epoch (0)
	// Epochs, when positive, is the long-segment shape: every crash segment
	// runs at least this many epochs of AdvEvery ops before its crash point,
	// far enough for the retire journal to recycle pages and rewrite
	// recycled ones (epoch.JournalK); in a concurrent round worker 0 drives
	// those advances beside the background advancer. 0 leaves the segment
	// as Ops and AdvEvery make it; <0 = derive in [4K, 6K].
	Epochs int
	// Early, when positive, takes the Manual early write-back step
	// (epoch.System.FlushEarly) after every Early-th op — of the single
	// writer, or of worker 0 beside the others in a concurrent round. 0
	// takes none; <0 = derive in [1, AdvEvery].
	Early int
}

// Derive is the sentinel for "fill this field from the seed".
const Derive = -1

// NewRoundParams returns params with every derivable field set to derive.
func NewRoundParams(subject string, seed uint64) RoundParams {
	return RoundParams{
		Subject: subject, Seed: seed,
		Evict: Derive, CrashAfter: Derive, CrashStep: Derive,
		TailAdvances: Derive, AdvEvery: Derive, Spurious: Derive, MemType: Derive,
		Async: Derive,
	}
}

// splitmix is the engine's RNG: tiny, seedable, and identical everywhere.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// Resolve fills every derivable field from the seed. The RNG draws happen
// unconditionally and in a fixed order; overrides are applied afterwards,
// so a replay that pins one field reproduces all the others exactly.
func Resolve(p RoundParams) RoundParams {
	rng := splitmix{s: Mix(p.Seed, 0xD0)}

	keyspace := []uint64{16, 64, 256}[rng.intn(3)]
	evict := float64(rng.intn(101)) / 100
	events := 1 + rng.intn(2)
	workers := []int{1, 1, 4}[rng.intn(3)]
	ops := []int{64, 200, 600}[rng.intn(3)]
	advEvery := 4 + rng.intn(29)
	spurious := []float64{0, 0.01, 0.05}[rng.intn(3)]
	memtype := []float64{0, 0.01}[rng.intn(2)]
	crashAfterDraw := rng.next()
	crashStepDraw := rng.next()
	tailAdvDraw := rng.next()
	// Pipeline draws come last so rounds recorded before the advance
	// pipeline existed derive the same op streams they always did. The
	// retired shards= draw (the flusher shard count) is still consumed
	// ahead of the async= draw, and the retired engine= draw (the
	// durability engine) and rworkers= draw (the recovery scan's worker
	// count) after it, so every later draw keeps its stream position.
	rng.next()
	asyncDraw := rng.next()
	rng.next()
	rng.next()
	// The retired fgl= draw (global vs fine-grained fallback) is still
	// consumed, so any draw appended after it keeps the stream position
	// every recorded seed resolved with.
	rng.next()
	// Appended last, and used only when the caller asks for the
	// long-segment shape: recorded seeds, corpus entries and replay lines
	// carry Epochs = 0 and resolve to the rounds they always did. The same
	// holds for the early write-back step's draw after it.
	epochsDraw := rng.next()
	earlyDraw := rng.next()

	if p.KeySpace == 0 {
		p.KeySpace = keyspace
	}
	if p.Evict < 0 {
		p.Evict = evict
	}
	if p.CrashEvents == 0 {
		p.CrashEvents = events
	}
	if p.Workers == 0 {
		p.Workers = workers
	}
	if p.Ops == 0 {
		p.Ops = ops
	}
	if p.AdvEvery < 0 {
		p.AdvEvery = advEvery
	}
	if p.Spurious < 0 {
		p.Spurious = spurious
	}
	if p.MemType < 0 {
		p.MemType = memtype
	}
	if p.CrashAfter < 0 {
		p.CrashAfter = int(crashAfterDraw % uint64(p.Ops+1))
	}
	if p.CrashStep < 0 {
		if p.Workers > 1 || crashStepDraw%2 == 0 {
			p.CrashStep = 0
		} else {
			p.CrashStep = 1 + int(crashStepDraw%40)
		}
	}
	if p.TailAdvances < 0 {
		p.TailAdvances = int(tailAdvDraw % 4)
	}
	if p.Async < 0 {
		p.Async = int(asyncDraw % 2)
	}
	if p.Epochs < 0 {
		p.Epochs = 4*epoch.JournalK + int(epochsDraw%(2*epoch.JournalK+1))
	}
	if p.Early < 0 {
		p.Early = 1 + int(earlyDraw%uint64(p.AdvEvery))
	}
	if need := p.Epochs * p.AdvEvery; p.Workers <= 1 {
		p.CrashAfter = max(p.CrashAfter, need) // the plain phase alone spans Epochs epochs
	} else {
		p.Ops = max(p.Ops, need)
	}
	return p
}

// ReplayString encodes fully resolved params as the argument of the
// bdfuzz -replay flag. epochs= appears only on long-segment rounds and
// early= only on rounds that take early write-back steps, so every other
// round prints the line it always printed, less the retired engine= field.
func (p RoundParams) ReplayString() string {
	s := fmt.Sprintf(
		"subject=%s seed=0x%x ops=%d workers=%d keyspace=%d evict=%.2f events=%d crash-after=%d crash-step=%d tail-adv=%d adv-every=%d spurious=%.2f memtype=%.2f async=%d",
		p.Subject, p.Seed, p.Ops, p.Workers, p.KeySpace, p.Evict, p.CrashEvents,
		p.CrashAfter, p.CrashStep, p.TailAdvances, p.AdvEvery, p.Spurious, p.MemType,
		p.Async)
	if p.Epochs != 0 {
		s += fmt.Sprintf(" epochs=%d", p.Epochs)
	}
	if p.Early != 0 {
		s += fmt.Sprintf(" early=%d", p.Early)
	}
	return s
}

// ReplayCommand is the shell command that reproduces one round.
func (p RoundParams) ReplayCommand() string {
	return fmt.Sprintf("go run ./cmd/bdfuzz -replay '%s'", p.ReplayString())
}

// ParseReplay decodes a ReplayString back into params. Specs recorded
// before the advance pipeline existed carry no async= field; it stays at
// its derive default and Resolve fills it. Specs recorded while the global
// fallback lock, the flusher shard count, the durability engine or the
// recovery scan's worker count was selectable carry an fgl=, shards=,
// engine= or rworkers= field, which is accepted and ignored.
func ParseReplay(s string) (RoundParams, error) {
	p := RoundParams{Evict: Derive, CrashAfter: Derive, CrashStep: Derive,
		TailAdvances: Derive, AdvEvery: Derive, Spurious: Derive, MemType: Derive,
		Async: Derive}
	for _, field := range strings.Fields(s) {
		kv := strings.SplitN(field, "=", 2)
		if len(kv) != 2 {
			return p, fmt.Errorf("crashfuzz: bad replay field %q", field)
		}
		var err error
		switch kv[0] {
		case "subject":
			p.Subject = kv[1]
		case "seed":
			_, err = fmt.Sscanf(kv[1], "0x%x", &p.Seed)
			if err != nil {
				_, err = fmt.Sscanf(kv[1], "%d", &p.Seed)
			}
		case "ops":
			_, err = fmt.Sscanf(kv[1], "%d", &p.Ops)
		case "workers":
			_, err = fmt.Sscanf(kv[1], "%d", &p.Workers)
		case "keyspace":
			_, err = fmt.Sscanf(kv[1], "%d", &p.KeySpace)
		case "evict":
			_, err = fmt.Sscanf(kv[1], "%f", &p.Evict)
		case "events":
			_, err = fmt.Sscanf(kv[1], "%d", &p.CrashEvents)
		case "crash-after":
			_, err = fmt.Sscanf(kv[1], "%d", &p.CrashAfter)
		case "crash-step":
			_, err = fmt.Sscanf(kv[1], "%d", &p.CrashStep)
		case "tail-adv":
			_, err = fmt.Sscanf(kv[1], "%d", &p.TailAdvances)
		case "adv-every":
			_, err = fmt.Sscanf(kv[1], "%d", &p.AdvEvery)
		case "spurious":
			_, err = fmt.Sscanf(kv[1], "%f", &p.Spurious)
		case "memtype":
			_, err = fmt.Sscanf(kv[1], "%f", &p.MemType)
		case "async":
			_, err = fmt.Sscanf(kv[1], "%d", &p.Async)
		case "epochs":
			_, err = fmt.Sscanf(kv[1], "%d", &p.Epochs)
		case "early":
			_, err = fmt.Sscanf(kv[1], "%d", &p.Early)
		case "fgl", "shards", "engine", "rworkers":
		default:
			return p, fmt.Errorf("crashfuzz: unknown replay field %q", kv[0])
		}
		if err != nil {
			return p, fmt.Errorf("crashfuzz: bad replay value %q: %v", field, err)
		}
	}
	if p.Subject == "" {
		return p, fmt.Errorf("crashfuzz: replay spec missing subject")
	}
	return p, nil
}

// Failure reports one consistency violation, with everything needed to
// reproduce it.
type Failure struct {
	Params RoundParams // fully resolved
	Msg    string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("%s\nreplay: %s", f.Msg, f.Params.ReplayCommand())
}

// crashSentinel is the value the persist hook panics with to simulate a
// power failure at a persist point; anything else unwinding through the
// engine is a real bug and is re-panicked.
type crashSentinel struct{ point nvm.PersistPoint }

// RunRound resolves params and executes one crash round. It returns nil
// when the round passes and a Failure describing the first violation
// otherwise. Subject panics (double frees, recovery invariant violations)
// are converted into Failures so the round's replay line is not lost.
func RunRound(p RoundParams) (f *Failure) {
	p = Resolve(p)
	defer func() {
		if r := recover(); r != nil {
			f = &Failure{Params: p, Msg: fmt.Sprintf("panic: %v\n%s", r, debug.Stack())}
		}
	}()
	sub, err := NewSubject(p.Subject)
	if err != nil {
		return &Failure{Params: p, Msg: err.Error()}
	}
	if p.Workers <= 1 {
		return runSingle(p, sub)
	}
	return runConcurrent(p, sub)
}

func cloneMap(m map[uint64]uint64) map[uint64]uint64 {
	c := make(map[uint64]uint64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// diffMaps renders a compact difference between got and want.
func diffMaps(got, want map[uint64]uint64) string {
	var keys []uint64
	seen := map[uint64]bool{}
	for k := range got {
		keys, seen[k] = append(keys, k), true
	}
	for k := range want {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	n := 0
	for _, k := range keys {
		gv, gok := got[k]
		wv, wok := want[k]
		if gok == wok && gv == wv {
			continue
		}
		if n == 8 {
			b.WriteString(" ...")
			break
		}
		n++
		switch {
		case gok && !wok:
			fmt.Fprintf(&b, " key %d: phantom value %d", k, gv)
		case !gok && wok:
			fmt.Fprintf(&b, " key %d: lost value %d", k, wv)
		default:
			fmt.Fprintf(&b, " key %d: got %d want %d", k, gv, wv)
		}
	}
	return b.String()
}

// dumpState reads the recovered structure back through Get over the fuzzed
// key universe.
func dumpState(sub Subject, keyspace uint64) map[uint64]uint64 {
	h := sub.Handle(0)
	m := make(map[uint64]uint64)
	for k := uint64(0); k < keyspace; k++ {
		if v, ok := h.Get(k); ok {
			m[k] = v
		}
	}
	return m
}

// pendingOp is the strict-mode in-flight operation at a mid-op crash.
type pendingOp struct {
	insert bool
	k, v   uint64
}

// session drives one subject through ops, epoch advances and crashes,
// maintaining the model and the per-epoch snapshots the checkers compare
// against. It is the single-writer engine; ReplayBytes drives it too.
type session struct {
	p        RoundParams
	sub      Subject
	h        kv.Session
	buffered bool
	model    map[uint64]uint64
	snaps    map[uint64]map[uint64]uint64
	pending  *pendingOp
	opSeq    uint64
	crashes  int
	// recoverStep, when positive, makes crashCheck power-fail the recovery
	// itself at its recoverStep-th persist event (if it has that many)
	// and recover again before checking.
	recoverStep int
}

// newSession opens a session on a fresh heap of heapWords (a crash costs a
// pass over the heap, which is most of what a short scripted run costs).
func newSession(p RoundParams, sub Subject, heapWords int) *session {
	s := &session{p: p, sub: sub, buffered: sub.Durability() == Buffered}
	// Every round runs with telemetry and a live tracer attached, so the
	// fuzzer also exercises the obs hooks across crash and recovery.
	rec := obs.New()
	rec.StartTrace(1 << 10)
	sub.Init(Env{
		Seed:         p.Seed,
		HeapWords:    heapWords,
		Workers:      1,
		SpuriousRate: p.Spurious,
		MemTypeRate:  p.MemType,
		Async:        p.Async == 1,
		Obs:          rec,
	})
	s.h = sub.Handle(0)
	s.model = map[uint64]uint64{}
	s.resetSnaps(s.sub.GlobalEpoch())
	return s
}

// resetSnaps seeds end-of-epoch snapshots for every epoch the recovery
// boundary could name before the first post-(re)start advance: with the
// active epoch at g, epochs g-1 and g-2 closed with the current state.
func (s *session) resetSnaps(g uint64) {
	s.snaps = map[uint64]map[uint64]uint64{
		g - 1: cloneMap(s.model),
		g - 2: cloneMap(s.model),
	}
}

// op applies one operation to the structure and, on completion, to the
// model. Get results are checked against the model on the spot.
func (s *session) op(kind int, k uint64) error {
	switch kind {
	case 0: // insert (upsert: always installs, reports replaced)
		s.opSeq++
		v := s.opSeq
		s.pending = &pendingOp{insert: true, k: k, v: v}
		replaced := s.h.Insert(k, v)
		s.pending = nil
		_, had := s.model[k]
		if replaced != had {
			return fmt.Errorf("insert(%d) reported replaced=%v but key present=%v in model", k, replaced, had)
		}
		s.model[k] = v
	case 1: // remove (reports whether the key was present)
		s.pending = &pendingOp{insert: false, k: k}
		ok := s.h.Remove(k)
		s.pending = nil
		_, had := s.model[k]
		if ok != had {
			return fmt.Errorf("remove(%d) returned %v but key present=%v in model", k, ok, had)
		}
		delete(s.model, k)
	default: // get
		v, ok := s.h.Get(k)
		mv, mok := s.model[k]
		if ok != mok || (ok && v != mv) {
			return fmt.Errorf("get(%d) = (%d, %v), model has (%d, %v)", k, v, ok, mv, mok)
		}
	}
	return nil
}

// early takes the early write-back step, if the round asks for one after
// the i-th op (counted from 0).
func (s *session) early(i int) {
	if s.p.Early > 0 && (i+1)%s.p.Early == 0 {
		s.sub.Early()
	}
}

// advance snapshots the model as the end-of-epoch state of the active
// epoch, then performs one epoch transition.
func (s *session) advance() {
	if !s.buffered {
		return
	}
	s.snaps[s.sub.GlobalEpoch()] = cloneMap(s.model)
	s.sub.Advance()
}

// crashCheck power-fails the subject, recovers it, and verifies the
// recovered state. On success the session continues from the recovered
// state (for multi-crash rounds).
func (s *session) crashCheck(midOp bool) error {
	crashEpoch := s.sub.GlobalEpoch()
	s.sub.Heap().SetPersistHook(nil)
	s.crashes++
	s.sub.Crash(nvm.CrashOptions{EvictFraction: s.p.Evict, Seed: Mix(s.p.Seed, 0xC0+uint64(s.crashes))})
	if s.recoverStep > 0 {
		s.armHook(s.recoverStep)
	}
	err := s.sub.Recover()
	if err != nil && s.recoverStep > 0 {
		// The recovery died — at the hook, or of something the
		// uninterrupted attempt will die of again and report. Power-cycle
		// (which also disarms the hook) and recover from what it left.
		s.crashes++
		s.sub.Heap().Crash(nvm.CrashOptions{EvictFraction: s.p.Evict, Seed: Mix(s.p.Seed, 0xC0+uint64(s.crashes))})
		err = s.sub.Recover()
	}
	s.sub.Heap().SetPersistHook(nil)
	if err != nil {
		return err
	}

	dump := dumpState(s.sub, s.p.KeySpace)
	s.h = s.sub.Handle(0)
	if n := s.sub.Len(); n != len(dump) {
		return fmt.Errorf("recovered Len() = %d but dump over keyspace %d has %d keys", n, s.p.KeySpace, len(dump))
	}

	if s.buffered {
		p := s.sub.PersistedEpoch()
		if p+2 < crashEpoch {
			return fmt.Errorf("recovery boundary too stale: persisted epoch %d, crash epoch %d (BDL allows >= crash-2)", p, crashEpoch)
		}
		if p > crashEpoch {
			return fmt.Errorf("recovery boundary %d beyond crash epoch %d", p, crashEpoch)
		}
		want, ok := s.snaps[p]
		if !ok {
			return fmt.Errorf("no end-of-epoch snapshot for recovery boundary %d (crash epoch %d)", p, crashEpoch)
		}
		if d := diffMaps(dump, want); d != "" {
			return fmt.Errorf("recovered state is not the end-of-epoch-%d prefix:%s", p, d)
		}
		s.model = cloneMap(want)
	} else {
		// Strict: every completed op is durable; a mid-op crash may
		// expose the in-flight op either way.
		if d := diffMaps(dump, s.model); d != "" {
			matched := false
			if midOp && s.pending != nil {
				alt := cloneMap(s.model)
				if s.pending.insert {
					alt[s.pending.k] = s.pending.v
				} else {
					delete(alt, s.pending.k)
				}
				if diffMaps(dump, alt) == "" {
					s.model = alt
					matched = true
				}
			}
			if !matched {
				return fmt.Errorf("strict subject lost or invented completed ops:%s", d)
			}
		}
	}
	s.pending = nil

	if lb := s.sub.LiveBlocks(); lb >= 0 && lb != int64(len(dump)) {
		return fmt.Errorf("allocator has %d live blocks for %d keys (leak or phantom block)", lb, len(dump))
	}
	// The heap must survive the crash/recover cycle without losing or
	// double-counting a power failure: exactly one crash per Crash().
	if got := s.sub.Heap().Crashes(); got != int64(s.crashes) {
		return fmt.Errorf("heap crash counter %d != %d crashes performed", got, s.crashes)
	}
	if ic, ok := s.sub.(InvariantChecker); ok {
		if err := ic.CheckInvariants(dump); err != nil {
			return err
		}
	}

	s.resetSnaps(s.sub.GlobalEpoch())
	return nil
}

// armHook installs a persist-point power failure: the countdown decrements
// on every flush/fence/write-back, and once it reaches zero every
// subsequent persist event panics with the sentinel (sticky, so a
// structure-internal recover() cannot swallow the crash for good).
func (s *session) armHook(countdown int) {
	var n int64 = int64(countdown)
	cnt := &n
	s.sub.Heap().SetPersistHook(func(pt nvm.PersistPoint, _ nvm.Addr) {
		if atomic.AddInt64(cnt, -1) <= 0 {
			panic(crashSentinel{point: pt})
		}
	})
}

// catchCrash runs fn, converting a sentinel panic into crashed=true.
func catchCrash(fn func() error) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSentinel); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	return false, fn()
}

// runSingle is the deterministic single-writer round: exact-prefix
// checking for buffered subjects, completed-op checking for strict ones.
// subjectMsg prefixes an error with the subject name unless it already is.
func subjectMsg(name string, err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, name+":") {
		return msg
	}
	return name + ": " + msg
}

func runSingle(p RoundParams, sub Subject) *Failure {
	s := newSession(p, sub, DefaultHeapWords)
	fail := func(err error) *Failure { return &Failure{Params: p, Msg: subjectMsg(sub.Name(), err)} }

	opRNG := splitmix{s: Mix(p.Seed, 0x09)}
	nextOp := func() (kind int, k uint64) {
		r := opRNG.next()
		k = (r >> 8) % p.KeySpace
		switch r % 10 {
		case 0, 1, 2, 3, 4:
			kind = 0
		case 5, 6, 7:
			kind = 1
		default:
			kind = 2
		}
		return
	}

	for ev := 0; ev < p.CrashEvents; ev++ {
		// Plain phase: run up to the crash point.
		for i := 0; i < p.CrashAfter; i++ {
			if i > 0 && i%p.AdvEvery == 0 {
				s.advance()
			}
			kind, k := nextOp()
			if err := s.op(kind, k); err != nil {
				return fail(err)
			}
			s.early(i)
		}

		// Crash phase: either at this op boundary (after optional tail
		// advances), or at the CrashStep-th persist event from here.
		midOp := false
		if p.CrashStep > 0 {
			s.armHook(p.CrashStep)
			crashed, err := catchCrash(func() error {
				for i := 0; i < p.Ops; i++ {
					if i%p.AdvEvery == 0 {
						s.advance()
					}
					kind, k := nextOp()
					if err := s.op(kind, k); err != nil {
						return err
					}
					s.early(i)
				}
				for i := 0; i < p.TailAdvances+1; i++ {
					s.advance()
				}
				return nil
			})
			if err != nil {
				return fail(err)
			}
			midOp = crashed
		} else {
			for i := 0; i < p.TailAdvances; i++ {
				s.advance()
			}
		}

		if err := s.crashCheck(midOp); err != nil {
			return fail(err)
		}
	}

	// Post-recovery smoke: the structure must still accept operations.
	for i := 0; i < 8; i++ {
		kind, k := nextOp()
		if err := s.op(kind, k); err != nil {
			return fail(fmt.Errorf("post-recovery %v", err))
		}
	}
	return nil
}

// runConcurrent is the multi-worker round: workers run seeded op streams
// while epochs advance in the background; after a quiesced crash the
// recovered state is checked against the linearizability window (see
// checker.go).
func runConcurrent(p RoundParams, sub Subject) *Failure {
	buffered := sub.Durability() == Buffered
	rec := obs.New()
	rec.StartTrace(1 << 10)
	sub.Init(Env{
		Seed:         p.Seed,
		HeapWords:    DefaultHeapWords,
		Workers:      p.Workers,
		SpuriousRate: p.Spurious,
		MemTypeRate:  p.MemType,
		Async:        p.Async == 1,
		Obs:          rec,
	})
	fail := func(err error) *Failure { return &Failure{Params: p, Msg: subjectMsg(sub.Name(), err)} }

	var opSeq atomic.Uint64 // unique insert values across the whole round
	baseline := map[uint64]uint64{}

	// A panic on a worker or advancer goroutine (a double free, say) would
	// kill the process before the test could print the replay line; catch
	// the first one and surface it as an ordinary Failure instead.
	var panicMsg atomic.Pointer[string]
	catch := func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("panic: %v\n%s", r, debug.Stack())
			panicMsg.CompareAndSwap(nil, &msg)
		}
	}

	for ev := 0; ev < p.CrashEvents; ev++ {
		var clock atomic.Uint64
		recs := make([][]opRec, p.Workers)
		var wg sync.WaitGroup
		var done atomic.Bool

		if buffered {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer catch()
				for !done.Load() && panicMsg.Load() == nil {
					sub.Advance()
					time.Sleep(100 * time.Microsecond)
				}
			}()
		}

		var workers sync.WaitGroup
		for w := 0; w < p.Workers; w++ {
			workers.Add(1)
			go func(w int) {
				defer workers.Done()
				defer catch()
				h := sub.Handle(w)
				rng := splitmix{s: Mix(p.Seed, uint64(ev)<<16|uint64(w)|0x0c0)}
				local := make([]opRec, 0, p.Ops)
				for i := 0; i < p.Ops; i++ {
					if panicMsg.Load() != nil {
						break // another goroutine died; stop cleanly
					}
					if p.Epochs > 0 && w == 0 && i > 0 && i%p.AdvEvery == 0 {
						sub.Advance() // long-segment shape: Epochs epochs whatever the scheduler does
					}
					r := rng.next()
					k := (r >> 8) % p.KeySpace
					start := clock.Add(1)
					switch r % 10 {
					case 0, 1, 2, 3, 4:
						v := opSeq.Add(1)
						ok := h.Insert(k, v)
						local = append(local, opRec{
							insert: true, k: k, v: v, ok: ok,
							start: start, end: clock.Add(1), epoch: h.Epoch(),
						})
					case 5, 6, 7:
						ok := h.Remove(k)
						local = append(local, opRec{
							k: k, ok: ok,
							start: start, end: clock.Add(1), epoch: h.Epoch(),
						})
					default:
						h.Get(k)
					}
					if p.Early > 0 && w == 0 && (i+1)%p.Early == 0 {
						sub.Early() // beside the other workers' operations
					}
				}
				recs[w] = local
			}(w)
		}
		workers.Wait()
		done.Store(true)
		wg.Wait()
		if m := panicMsg.Load(); m != nil {
			return fail(fmt.Errorf("%s", *m))
		}

		for i := 0; i < p.TailAdvances; i++ {
			sub.Advance()
		}
		crashEpoch := sub.GlobalEpoch()
		sub.Crash(nvm.CrashOptions{EvictFraction: p.Evict, Seed: Mix(p.Seed, 0xCC0+uint64(ev))})
		if err := sub.Recover(); err != nil {
			return fail(err)
		}

		dump := dumpState(sub, p.KeySpace)
		if n := sub.Len(); n != len(dump) {
			return fail(fmt.Errorf("recovered Len() = %d but dump has %d keys", n, len(dump)))
		}
		persisted := uint64(0)
		if buffered {
			persisted = sub.PersistedEpoch()
			if persisted+2 < crashEpoch {
				return fail(fmt.Errorf("recovery boundary too stale: persisted %d, crash epoch %d", persisted, crashEpoch))
			}
			if g := sub.GlobalEpoch(); g-persisted > 2 {
				return fail(fmt.Errorf("recovered system opens outside the window: global %d, persisted %d", g, persisted))
			}
		}
		if lb := sub.LiveBlocks(); lb >= 0 && lb != int64(len(dump)) {
			return fail(fmt.Errorf("allocator has %d live blocks for %d keys", lb, len(dump)))
		}

		all := historyWithBaseline(baseline, recs)
		if err := checkWindow(all, persisted, buffered, dump); err != nil {
			return fail(err)
		}
		if ic, ok := sub.(InvariantChecker); ok {
			if err := ic.CheckInvariants(dump); err != nil {
				return fail(err)
			}
		}
		baseline = dump
	}
	return nil
}
