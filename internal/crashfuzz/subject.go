package crashfuzz

import (
	"fmt"
	"os"
	"sort"
	"strconv"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// Durability classifies what a subject promises across a crash.
type Durability int

const (
	// Buffered subjects (BDL structures on the epoch system) recover the
	// state at the end of some persisted epoch P >= crash_epoch - 2.
	Buffered Durability = iota
	// Strict subjects (CCEH, LB+Tree, palloc) make every completed
	// operation durable before returning; recovery must reproduce all of
	// them, with at most the single in-flight operation ambiguous.
	Strict
)

func (d Durability) String() string {
	if d == Strict {
		return "strict"
	}
	return "buffered"
}

// Env configures one subject instance for one fuzz round. Every random
// decision a subject makes must derive from Seed so that rounds replay.
type Env struct {
	// Seed drives the heap eviction RNG and the HTM abort-injection RNG.
	Seed uint64
	// HeapWords sizes each simulated heap.
	HeapWords int
	// Workers is the number of concurrent handles the round will use.
	Workers int
	// CacheLines bounds the simulated cache (0 = unbounded); a bounded
	// cache adds seeded background evictions mid-run.
	CacheLines int
	// SpuriousRate / MemTypeRate inject HTM abort churn.
	SpuriousRate float64
	MemTypeRate  float64
	// Async is the flusher schedule for buffered subjects: the flusher
	// step runs right after each advance (true) or lags a full epoch
	// (false). See Env.advance.
	Async bool
	// Obs, when non-nil, is attached to the TM and the epoch system the
	// subject builds. The engine installs one per round, so every fuzzed
	// schedule also exercises the attempt and phase hooks across crash
	// and recovery.
	Obs *obs.Recorder
}

// epochCfg is the epoch.Config every buffered subject opens (and
// recovers) its system with.
func (e Env) epochCfg() epoch.Config {
	return epoch.Config{
		Manual: true,
		Obs:    e.Obs,
	}
}

// advance is one step of the round's epoch schedule on a buffered
// subject's system: the advancer's step, then — in the Async schedule —
// the flusher's, so the closed epoch persists at once instead of at the
// next advance.
func (e Env) advance(sys *epoch.System) {
	sys.AdvanceOnce()
	if e.Async {
		sys.FlushOnce()
	}
}

// TM builds the round's transactional memory from the env's injection
// settings, seeded for replayable abort streams.
func (e Env) TM() *htm.TM {
	tm := htm.New(htm.Config{
		Seed:                e.Seed ^ 0x7fb5d329728ea185,
		SpuriousRate:        e.SpuriousRate,
		MemTypeRate:         e.MemTypeRate,
		PreWalkResidualRate: e.MemTypeRate / 10,
	})
	tm.SetObs(e.Obs)
	return tm
}

// NVMHeap builds the round's persistent heap.
func (e Env) NVMHeap() *nvm.Heap {
	return nvm.New(nvm.Config{Words: e.HeapWords, Seed: e.Seed ^ 0x9e3779b97f4a7c15, CacheLines: e.CacheLines})
}

// Subject adapts one persistent structure to the fuzzer: init / op /
// crash / recover / dump. Implementations live in subjects.go: one for
// kv's buffered kinds, one for its strict kinds, one for palloc itself.
type Subject interface {
	Name() string
	Durability() Durability
	// MaxKeySpace caps the key universe the subject supports (the engine
	// may fuzz a smaller universe for collision density).
	MaxKeySpace() uint64
	// Init builds a fresh structure. It must be callable again only via
	// Recover.
	Init(env Env)
	// Handle returns per-goroutine session i in [0, env.Workers).
	// Handles are re-created by Recover. Buffered subjects' sessions
	// report exact commit epochs (Epoch); strict ones report 0.
	Handle(i int) kv.Session
	// Heap returns the persistent heap (for crash-point hooks).
	Heap() *nvm.Heap
	// GlobalEpoch returns the active epoch (Buffered; 0 for Strict).
	GlobalEpoch() uint64
	// PersistedEpoch returns the newest durable epoch; after Recover it
	// is the recovery boundary P (Buffered; 0 for Strict).
	PersistedEpoch() uint64
	// Advance performs one manual epoch transition in the round's flusher
	// schedule (Env.Async; no-op for Strict).
	Advance()
	// Early takes one early write-back step of the open epoch (no-op for
	// Strict).
	Early()
	// Crash power-fails the structure. All handles become invalid.
	Crash(opts nvm.CrashOptions)
	// Recover rebuilds the structure and fresh handles from the heap's
	// persistent image. Structure-level recovery panics (duplicate keys,
	// probe overflow) are converted to errors by the engine.
	Recover() error
	// Len returns the structure's key count (cross-checked against the
	// engine's dump).
	Len() int
	// LiveBlocks returns the data allocator's live-block count, or -1 if
	// the subject has no one-block-per-key accounting. Immediately after
	// Recover it must equal Len() — more means a phantom or leak.
	LiveBlocks() int64
}

// InvariantChecker is an optional Subject extension: a structure-specific
// audit run after recovery and the generic state check.
type InvariantChecker interface {
	CheckInvariants(recovered map[uint64]uint64) error
}

// --- registry ---------------------------------------------------------------

var registry = map[string]func() Subject{}

func register(name string, mk func() Subject) {
	if _, dup := registry[name]; dup {
		panic("crashfuzz: duplicate subject " + name)
	}
	registry[name] = mk
}

// Names returns all registered subject names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewSubject builds a fresh, uninitialized subject by name.
func NewSubject(name string) (Subject, error) {
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("crashfuzz: unknown subject %q (have %v)", name, Names())
	}
	return mk(), nil
}

// SeedFromEnv returns the fuzzing seed: BDFUZZ_SEED if set (decimal or
// 0x-hex), otherwise def. Every randomized test path derives its RNG from
// this one value so that failures reproduce from a single knob.
func SeedFromEnv(def uint64) uint64 {
	s := os.Getenv("BDFUZZ_SEED")
	if s == "" {
		return def
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return def
	}
	return v
}

// Mix derives a stream seed from a master seed and an index (splitmix64).
func Mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x2545f4914f6cdd1d
	}
	return z
}
