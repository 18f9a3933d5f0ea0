package crashfuzz

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"bdhtm/internal/epoch"
)

// defaultSeed is the suite's fixed fuzzing seed; override with
// BDFUZZ_SEED=<n> (decimal or 0x-hex) to explore other schedules. Every
// failure prints a `go run ./cmd/bdfuzz -replay '...'` command that
// reproduces it exactly.
const defaultSeed = 0xbdf022

func shortRounds(t *testing.T) int {
	if testing.Short() {
		return 50
	}
	return 400
}

// TestFuzzAllSubjects runs seeded crash rounds against every registered
// subject: randomized op streams, epoch schedules, crash points
// (including mid-operation and mid-advance power failures via the heap's
// persist hook) and eviction subsets, with exact-prefix checking for
// single-writer rounds and linearizability-window checking for
// concurrent ones.
func TestFuzzAllSubjects(t *testing.T) {
	rounds := shortRounds(t)
	seed := SeedFromEnv(defaultSeed)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if f := Fuzz(NewRoundParams(name, seed), rounds, t.Logf); f != nil {
				t.Fatalf("%s", f.Error())
			}
		})
	}
}

// TestBDHashPhantomRegression pins the round that detects the Listing-1
// phantom-preallocated-block pitfall (DESIGN.md Sec. 6.1): a prealloc
// block may carry a valid epoch only once a transaction has linked it —
// stamped on a path that commits without using it, recovery resurrects
// it as a phantom insert.
//
// Mutation check: stamping up front in bdhash.Insert's transaction
// (`newBlk.SetEpochTx` before insertBody instead of in the two branches
// that link the block) makes this round fail with "duplicate key in
// recovery", and makes TestFuzzAllSubjects/bdhash fail within 200 rounds
// at seed 0xbd0ff. Both were verified against the mutated tree; the
// failure replays deterministically from the printed command.
func TestBDHashPhantomRegression(t *testing.T) {
	p, err := ParseReplay("subject=bdhash seed=0xe79990bd4ec9ebeb ops=150 workers=4 keyspace=256 evict=0.90 events=1 crash-after=3 crash-step=0 tail-adv=0 adv-every=31 spurious=0.00 memtype=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if f := RunRound(p); f != nil {
		t.Fatalf("%s", f.Error())
	}
}

// TestPallocStraddleRegression pins the rounds that caught the palloc
// subject persisting a class-0 block as if it sat in one cache line. The
// block is three words packed densely, so two in eight straddle a line.
//
// Mutation check: (1) the upsert and remove paths persisting with
// heap.Flush(b) instead of the whole block fail the first two rounds
// ("strict subject lost or invented completed ops", "recovered key … is
// superseded" — the second is round 1 of TestFuzzAllSubjects/palloc);
// (2) Insert writing payload and header under one FlushRange, without
// the payload's own fence first, fails the third with "phantom value".
func TestPallocStraddleRegression(t *testing.T) {
	for _, line := range []string{
		"subject=palloc seed=0x53fdd124f4244bb8 ops=8 workers=1 keyspace=64 evict=0.51 events=1 crash-after=8 crash-step=0 tail-adv=0 adv-every=21 spurious=0.05 memtype=0.00 async=1 engine=undo rworkers=2",
		"subject=palloc seed=0xcc4121b295044b47 ops=75 workers=4 keyspace=64 evict=0.96 events=1 crash-after=2 crash-step=0 tail-adv=0 adv-every=11 spurious=0.00 memtype=0.00 async=0 engine=redo2f rworkers=8",
		"subject=palloc seed=0x770eb37887dd1b48 ops=600 workers=1 keyspace=64 evict=0.72 events=1 crash-after=443 crash-step=4 tail-adv=0 adv-every=22 spurious=0.05 memtype=0.00 async=0 engine=undo rworkers=2",
	} {
		p, err := ParseReplay(line)
		if err != nil {
			t.Fatal(err)
		}
		if f := RunRound(p); f != nil {
			t.Errorf("%s", f.Error())
		}
	}
}

// TestResolveDeterminism locks down the derive-unless-set contract:
// resolution is a pure function of the seed, and overriding one field
// must not shift what the others derive to (shrunk replays depend on
// this to keep the op stream aligned).
func TestResolveDeterminism(t *testing.T) {
	base := NewRoundParams("bdhash", 12345)
	a := Resolve(base)
	b := Resolve(base)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Resolve not deterministic:\n%+v\n%+v", a, b)
	}

	over := base
	over.Ops = 16
	c := Resolve(over)
	if c.Ops != 16 {
		t.Fatalf("override lost: Ops = %d", c.Ops)
	}
	// Fields with independent draws must be untouched by the override.
	// (CrashAfter is allowed to differ: its range is [0, Ops].)
	if c.KeySpace != a.KeySpace || c.Evict != a.Evict || c.Workers != a.Workers ||
		c.AdvEvery != a.AdvEvery || c.Spurious != a.Spurious || c.MemType != a.MemType ||
		c.CrashEvents != a.CrashEvents || c.TailAdvances != a.TailAdvances ||
		c.Async != a.Async {
		t.Fatalf("overriding Ops shifted other derived fields:\n%+v\n%+v", a, c)
	}
}

// TestParseReplayDefaultsPipelineFields ensures replay specs recorded
// before the advance pipeline existed still parse: async= is absent, stays
// at its derive default, and Resolve fills it.
func TestParseReplayDefaultsPipelineFields(t *testing.T) {
	p, err := ParseReplay("subject=bdhash seed=0x1 ops=16 workers=1 keyspace=32 evict=0.50 events=1 crash-after=4 crash-step=0 tail-adv=0 adv-every=8 spurious=0.00 memtype=0.00")
	if err != nil {
		t.Fatal(err)
	}
	if p.Async != Derive {
		t.Fatalf("old-format spec: Async = %d (want %d = derive)", p.Async, Derive)
	}
	r := Resolve(p)
	if r.Async != 0 && r.Async != 1 {
		t.Fatalf("resolved Async = %d, want 0 or 1", r.Async)
	}
}

// retiredFields matches the engine= (durability engine) and rworkers=
// (recovery scan worker count) fields that replay lines printed until the
// close kept one discipline and the scan took its worker count from
// GOMAXPROCS.
var retiredFields = regexp.MustCompile(` (engine|rworkers)=\w+`)

// TestResolveReplayCompatAcrossFGLRemoval pins the derived-parameter
// stream across the removal of the fgl= (global vs fine-grained fallback)
// axis: each want string is Resolve's output for that seed captured at the
// last commit that still had the axis, minus its trailing fgl= field (and,
// since, its engine= and rworkers= fields). Every recorded seed, corpus
// entry and printed replay line therefore resolves to the same round as
// before. Old lines that carry fgl=0 or fgl=1 parse, and to identical
// params.
func TestResolveReplayCompatAcrossFGLRemoval(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{0x1, "subject=bdhash seed=0x1 ops=200 workers=1 keyspace=16 evict=0.26 events=1 crash-after=24 crash-step=0 tail-adv=2 adv-every=15 spurious=0.00 memtype=0.01 async=0 engine=quadra rworkers=4"},
		{0x2, "subject=bdhash seed=0x2 ops=600 workers=4 keyspace=256 evict=0.14 events=1 crash-after=201 crash-step=0 tail-adv=2 adv-every=8 spurious=0.05 memtype=0.00 async=0 engine=undo rworkers=1"},
		{0x3, "subject=bdhash seed=0x3 ops=200 workers=1 keyspace=16 evict=0.03 events=2 crash-after=65 crash-step=4 tail-adv=2 adv-every=30 spurious=0.00 memtype=0.00 async=1 engine=redo2f rworkers=8"},
		{0xbd0ff, "subject=bdhash seed=0xbd0ff ops=200 workers=4 keyspace=256 evict=0.61 events=1 crash-after=167 crash-step=0 tail-adv=1 adv-every=28 spurious=0.05 memtype=0.00 async=1 engine=undo rworkers=1"},
		{0x1234, "subject=bdhash seed=0x1234 ops=600 workers=1 keyspace=16 evict=0.06 events=2 crash-after=273 crash-step=14 tail-adv=1 adv-every=31 spurious=0.00 memtype=0.00 async=0 engine=redo4f rworkers=8"},
		{0xdeadbeef, "subject=bdhash seed=0xdeadbeef ops=600 workers=1 keyspace=16 evict=0.95 events=1 crash-after=537 crash-step=40 tail-adv=1 adv-every=26 spurious=0.05 memtype=0.00 async=1 engine=redo2f rworkers=4"},
		{0x9e3779b97f4a7c15, "subject=bdhash seed=0x9e3779b97f4a7c15 ops=64 workers=1 keyspace=16 evict=0.89 events=1 crash-after=29 crash-step=0 tail-adv=2 adv-every=28 spurious=0.05 memtype=0.00 async=1 engine=quadra rworkers=2"},
		{0x2a, "subject=bdhash seed=0x2a ops=64 workers=4 keyspace=256 evict=0.22 events=1 crash-after=53 crash-step=0 tail-adv=0 adv-every=6 spurious=0.00 memtype=0.00 async=1 engine=redo4f rworkers=4"},
	} {
		derive := NewRoundParams("bdhash", tc.seed)
		got := Resolve(derive)
		if s, want := got.ReplayString(), retiredFields.ReplaceAllString(tc.want, ""); s != want {
			t.Errorf("seed %#x resolves differently:\n got %s\nwant %s", tc.seed, s, want)
		}
		for _, fgl := range []string{" fgl=0", " fgl=1"} {
			p, err := ParseReplay(tc.want + fgl)
			if err != nil {
				t.Fatalf("old-format spec with%s: %v", fgl, err)
			}
			if !reflect.DeepEqual(p, got) {
				t.Errorf("old-format spec with%s parsed to\n%+v\nwant\n%+v", fgl, p, got)
			}
		}
	}
}

// TestResolveReplayCompatAcrossShardsRemoval pins the derived-parameter
// stream across the removal of the shards= (flusher shard count) axis: each
// line is Resolve's output for that seed captured at the last commit that
// still had the axis. Minus its shards= (and engine= and rworkers=) fields
// it is what Resolve prints now, and the line with shards=1 or shards=4
// appended parses to identical params, so recorded seeds and old replay
// lines keep their rounds.
func TestResolveReplayCompatAcrossShardsRemoval(t *testing.T) {
	shardsField := regexp.MustCompile(` shards=\d+`)
	for _, tc := range []struct {
		seed uint64
		old  string
	}{
		{0x5, "subject=veb seed=0x5 ops=200 workers=4 keyspace=16 evict=0.43 events=2 crash-after=8 crash-step=0 tail-adv=0 adv-every=18 spurious=0.00 memtype=0.01 shards=1 async=0 engine=redo2f rworkers=8"},
		{0x77, "subject=veb seed=0x77 ops=200 workers=1 keyspace=256 evict=0.70 events=2 crash-after=154 crash-step=2 tail-adv=1 adv-every=20 spurious=0.00 memtype=0.00 shards=4 async=0 engine=redo2f rworkers=8"},
		{0xbd5, "subject=veb seed=0xbd5 ops=200 workers=4 keyspace=256 evict=0.57 events=2 crash-after=193 crash-step=0 tail-adv=2 adv-every=19 spurious=0.05 memtype=0.01 shards=4 async=0 engine=quadra rworkers=1"},
		{0x1f00d, "subject=veb seed=0x1f00d ops=64 workers=4 keyspace=16 evict=0.61 events=1 crash-after=27 crash-step=0 tail-adv=2 adv-every=18 spurious=0.05 memtype=0.01 shards=1 async=1 engine=bdl rworkers=2"},
		{0xc0ffee, "subject=veb seed=0xc0ffee ops=64 workers=4 keyspace=256 evict=0.16 events=2 crash-after=61 crash-step=0 tail-adv=3 adv-every=31 spurious=0.01 memtype=0.00 shards=4 async=0 engine=redo4f rworkers=1"},
		{0x51a4d5, "subject=veb seed=0x51a4d5 ops=200 workers=1 keyspace=16 evict=0.00 events=1 crash-after=165 crash-step=0 tail-adv=0 adv-every=30 spurious=0.00 memtype=0.00 shards=1 async=0 engine=redo2f rworkers=4"},
		{0xfeedface, "subject=veb seed=0xfeedface ops=600 workers=4 keyspace=64 evict=0.50 events=1 crash-after=512 crash-step=0 tail-adv=0 adv-every=11 spurious=0.05 memtype=0.00 shards=4 async=0 engine=quadra rworkers=8"},
		{0x7fffffffffffffff, "subject=veb seed=0x7fffffffffffffff ops=64 workers=1 keyspace=16 evict=0.37 events=2 crash-after=31 crash-step=8 tail-adv=0 adv-every=5 spurious=0.01 memtype=0.00 shards=4 async=1 engine=redo2f rworkers=2"},
	} {
		derive := NewRoundParams("veb", tc.seed)
		got := Resolve(derive)
		want := retiredFields.ReplaceAllString(shardsField.ReplaceAllString(tc.old, ""), "")
		if s := got.ReplayString(); s != want {
			t.Errorf("seed %#x resolves differently:\n got %s\nwant %s", tc.seed, s, want)
		}
		for _, shards := range []string{" shards=1", " shards=4"} {
			p, err := ParseReplay(want + shards)
			if err != nil {
				t.Fatalf("old-format spec with%s: %v", shards, err)
			}
			if !reflect.DeepEqual(p, got) {
				t.Errorf("old-format spec with%s parsed to\n%+v\nwant\n%+v", shards, p, got)
			}
		}
	}
}

// TestResolveReplayCompatAcrossRecoveryWorkersRemoval pins the derived-parameter
// stream across the removal of the rworkers= (recovery scan worker count)
// axis: each line is Resolve's output for that seed captured at the last
// commit that still had the axis. It parses, to the params Resolve derives
// now, and prints as itself minus the rworkers= (and engine=) field, so
// recorded seeds and old replay lines keep their rounds.
func TestResolveReplayCompatAcrossRecoveryWorkersRemoval(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		old  string
	}{
		{0x9, "subject=spash seed=0x9 ops=600 workers=1 keyspace=16 evict=0.69 events=1 crash-after=514 crash-step=0 tail-adv=3 adv-every=24 spurious=0.05 memtype=0.00 async=1 engine=redo4f rworkers=8"},
		{0x42, "subject=spash seed=0x42 ops=200 workers=1 keyspace=64 evict=0.60 events=2 crash-after=196 crash-step=38 tail-adv=3 adv-every=31 spurious=0.00 memtype=0.00 async=1 engine=redo4f rworkers=1"},
		{0xabc, "subject=spash seed=0xabc ops=200 workers=4 keyspace=256 evict=0.44 events=2 crash-after=4 crash-step=0 tail-adv=1 adv-every=5 spurious=0.00 memtype=0.00 async=0 engine=redo2f rworkers=2"},
		{0x5eed, "subject=spash seed=0x5eed ops=200 workers=1 keyspace=16 evict=0.89 events=1 crash-after=194 crash-step=30 tail-adv=0 adv-every=28 spurious=0.00 memtype=0.00 async=1 engine=redo4f rworkers=4"},
		{0xfacade, "subject=spash seed=0xfacade ops=64 workers=4 keyspace=256 evict=0.83 events=1 crash-after=9 crash-step=0 tail-adv=1 adv-every=9 spurious=0.00 memtype=0.00 async=1 engine=bdl rworkers=1"},
		{0x31337, "subject=spash seed=0x31337 ops=200 workers=1 keyspace=16 evict=0.90 events=1 crash-after=31 crash-step=0 tail-adv=0 adv-every=11 spurious=0.00 memtype=0.01 async=0 engine=redo4f rworkers=8"},
		{0xbadc0de, "subject=spash seed=0xbadc0de ops=200 workers=4 keyspace=64 evict=0.14 events=1 crash-after=29 crash-step=0 tail-adv=1 adv-every=9 spurious=0.01 memtype=0.01 async=1 engine=redo4f rworkers=4"},
		{0x1dea, "subject=spash seed=0x1dea ops=600 workers=4 keyspace=256 evict=0.18 events=2 crash-after=84 crash-step=0 tail-adv=2 adv-every=32 spurious=0.05 memtype=0.01 async=0 engine=bdl rworkers=2"},
	} {
		derive := NewRoundParams("spash", tc.seed)
		got := Resolve(derive)
		p, err := ParseReplay(tc.old)
		if err != nil {
			t.Fatalf("old-format spec: %v", err)
		}
		if r := Resolve(p); !reflect.DeepEqual(r, got) {
			t.Errorf("seed %#x: old-format spec resolved to\n%+v\nwant\n%+v", tc.seed, r, got)
		}
		if s, want := Resolve(p).ReplayString(), retiredFields.ReplaceAllString(tc.old, ""); s != want {
			t.Errorf("seed %#x prints\n got %s\nwant %s", tc.seed, s, want)
		}
	}
}

// TestResolveReplayCompatAcrossEngineRemoval pins the derived-parameter
// stream across the removal of the engine= (durability engine) axis: each
// line is Resolve's output for that seed captured at the last commit that
// still had the axis, under every engine it drew, with the long-segment
// and early write-back shapes among them. It parses to the params Resolve
// derives now for the same seed and shape, prints as itself minus the
// engine= field, and the round it names passes.
func TestResolveReplayCompatAcrossEngineRemoval(t *testing.T) {
	for _, old := range []string{
		"subject=bdhash seed=0x34 ops=64 workers=1 keyspace=256 evict=0.82 events=2 crash-after=12 crash-step=16 tail-adv=3 adv-every=19 spurious=0.00 memtype=0.01 async=1 engine=undo",
		"subject=veb seed=0x35 ops=200 workers=1 keyspace=256 evict=0.38 events=2 crash-after=137 crash-step=20 tail-adv=3 adv-every=14 spurious=0.01 memtype=0.01 async=1 engine=undo",
		"subject=skiplist seed=0x36 ops=200 workers=1 keyspace=16 evict=0.86 events=2 crash-after=53 crash-step=10 tail-adv=2 adv-every=4 spurious=0.00 memtype=0.00 async=1 engine=redo4f",
		"subject=spash seed=0x37 ops=64 workers=4 keyspace=256 evict=0.19 events=1 crash-after=11 crash-step=0 tail-adv=1 adv-every=30 spurious=0.05 memtype=0.01 async=0 engine=redo4f",
		"subject=palloc seed=0x38 ops=64 workers=1 keyspace=256 evict=0.20 events=2 crash-after=44 crash-step=20 tail-adv=1 adv-every=29 spurious=0.05 memtype=0.00 async=1 engine=quadra",
		"subject=cceh seed=0x39 ops=64 workers=1 keyspace=16 evict=0.61 events=1 crash-after=23 crash-step=36 tail-adv=1 adv-every=14 spurious=0.05 memtype=0.01 async=1 engine=redo2f",
		"subject=skiplist seed=0x3a ops=600 workers=4 keyspace=64 evict=0.43 events=2 crash-after=468 crash-step=0 tail-adv=2 adv-every=11 spurious=0.00 memtype=0.00 async=1 engine=bdl epochs=13",
		"subject=bdhash seed=0x3b ops=200 workers=1 keyspace=256 evict=0.45 events=1 crash-after=72 crash-step=22 tail-adv=3 adv-every=28 spurious=0.00 memtype=0.00 async=1 engine=redo2f early=6",
	} {
		p, err := ParseReplay(old)
		if err != nil {
			t.Fatalf("old-format spec: %v", err)
		}
		derive := NewRoundParams(p.Subject, p.Seed)
		if p.Epochs != 0 {
			derive.Epochs = Derive
		}
		if p.Early != 0 {
			derive.Early = Derive
		}
		want := Resolve(derive)
		if got := Resolve(p); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %#x: old-format spec resolved to\n%+v\nwant\n%+v", p.Seed, got, want)
		}
		if s, line := want.ReplayString(), retiredFields.ReplaceAllString(old, ""); s != line {
			t.Errorf("seed %#x prints\n got %s\nwant %s", p.Seed, s, line)
		}
		if f := RunRound(p); f != nil {
			t.Errorf("%s", f.Error())
		}
	}
}

// TestCrashMidParallelFlush pins power failures inside the epoch-close
// write-back: the persist hook fires at the n-th persist event past the
// crash point, landing mid-advance while the flusher is writing back the
// closed epoch's batch. The engine's crashCheck then asserts the full BDL
// contract — the recovery boundary P satisfies P >= crash_epoch - 2, the
// recovered state is exactly the end-of-epoch-P snapshot, and the
// allocator has one live block per key — under both flusher schedules
// (async=1: the flusher step right after each advance), so a torn batch
// (some lines written back, root unwritten) cannot surface as a phantom or
// lost key.
func TestCrashMidParallelFlush(t *testing.T) {
	for _, subject := range []string{"bdhash", "veb"} {
		for async := 0; async <= 1; async++ {
			t.Run(fmt.Sprintf("%s/async=%d", subject, async), func(t *testing.T) {
				t.Parallel()
				for step := 1; step <= 24; step += 2 {
					p := RoundParams{
						Subject: subject, Seed: 0xbd5ead0000 + uint64(step),
						Ops: 48, Workers: 1, KeySpace: 32, Evict: 0.6,
						CrashEvents: 1, CrashAfter: 12, CrashStep: step,
						TailAdvances: 1, AdvEvery: 4, Spurious: 0, MemType: 0,
						Async: async,
					}
					if f := RunRound(p); f != nil {
						t.Fatalf("crash-step %d: %s", step, f.Error())
					}
				}
			})
		}
	}
}

// TestAsyncBehindCrash pins the crash schedule of the flusher step run
// right after each advance: AdvanceOnce publishes epoch e+1 before epoch
// e's flush (FlushOnce) runs, so a power failure inside that flush
// crashes with global = e+1 while the root still names e-1 — the exact
// P = crash_epoch - 2 lower bound of the BDL window. The op-boundary
// variant (CrashStep = 0) crashes after the advance completes instead,
// hitting the P = crash_epoch - 1 steady state. Both must recover to a
// snapshotted epoch boundary.
func TestAsyncBehindCrash(t *testing.T) {
	for _, subject := range []string{"bdhash", "veb"} {
		t.Run(subject, func(t *testing.T) {
			t.Parallel()
			for _, step := range []int{0, 1, 2, 3, 5, 8, 13} {
				p := RoundParams{
					Subject: subject, Seed: 0xa55bd0000 + uint64(step),
					Ops: 40, Workers: 1, KeySpace: 32, Evict: 1,
					CrashEvents: 2, CrashAfter: 9, CrashStep: step,
					TailAdvances: 2, AdvEvery: 3, Spurious: 0, MemType: 0,
					Async: 1,
				}
				if f := RunRound(p); f != nil {
					t.Fatalf("crash-step %d: %s", step, f.Error())
				}
			}
		})
	}
}

// TestReplayRoundTrip checks the replay spec encodes every parameter.
func TestReplayRoundTrip(t *testing.T) {
	p := Resolve(NewRoundParams("spash", 0xfeed))
	q, err := ParseReplay(p.ReplayString())
	if err != nil {
		t.Fatal(err)
	}
	q = Resolve(q) // all fields pinned; Resolve must be a no-op
	if p.ReplayString() != q.ReplayString() {
		t.Fatalf("replay round trip drifted:\n%s\n%s", p.ReplayString(), q.ReplayString())
	}
}

// TestRoundsAreIndependent ensures a failing seed can be replayed in
// isolation: running round i of a Fuzz sweep standalone gives the same
// verdict as inside the sweep (rounds share no state).
func TestRoundsAreIndependent(t *testing.T) {
	base := NewRoundParams("veb", SeedFromEnv(defaultSeed))
	for i := 0; i < 5; i++ {
		p := base
		p.Seed = Mix(base.Seed, uint64(i))
		if f := RunRound(p); f != nil {
			t.Fatalf("round %d: %s", i, f.Error())
		}
		if f := RunRound(p); f != nil {
			t.Fatalf("round %d second run: %s", i, f.Error())
		}
	}
}

// TestFuzzSoak is the long-running sweep: skipped in -short runs, part of
// the literal tier-1 command. Beside the derived rounds every subject gets,
// each buffered subject runs the long-segment shape (Epochs derived, ≥ 4·K
// epochs before each of two crashes, no tail advances) with one worker and
// with four: the derived rounds crash some fifty ops into a segment, long
// before the retire journal recycles its first page. Each buffered subject
// also runs derived rounds in session mode: the derived spurious rates (at
// most 0.05) never exhaust a retry budget, so those rounds run every body
// as a transaction; pinning the rate to 1 — an override, applied after
// Resolve's draws, so every other field and every recorded replay line is
// what it was — runs every body as a session instead. And each buffered
// subject runs derived rounds that take the early write-back step every few
// ops (Early derived, from a draw past every other, so a round is the derived
// one plus the step). The long, session and early lanes run alone with
// -run 'TestFuzzSoak/^(long|session|early)-'.
func TestFuzzSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in short mode")
	}
	seed := SeedFromEnv(defaultSeed ^ 0x50a7)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if f := Fuzz(NewRoundParams(name, seed), 1500, nil); f != nil {
				t.Fatalf("%s", f.Error())
			}
		})
		if sub, _ := NewSubject(name); sub.Durability() != Buffered {
			continue
		}
		t.Run("session-"+name, func(t *testing.T) {
			t.Parallel()
			p := NewRoundParams(name, seed^0x5e55)
			p.Spurious = 1
			if f := Fuzz(p, 150, nil); f != nil {
				t.Fatalf("%s", f.Error())
			}
		})
		t.Run("early-"+name, func(t *testing.T) {
			t.Parallel()
			p := NewRoundParams(name, seed^0xea71)
			p.Early = Derive
			if f := Fuzz(p, 300, nil); f != nil {
				t.Fatalf("%s", f.Error())
			}
		})
		for _, workers := range []int{1, 4} {
			workers := workers
			t.Run(fmt.Sprintf("long-%s-workers=%d", name, workers), func(t *testing.T) {
				t.Parallel()
				p := NewRoundParams(name, seed^0x1095)
				p.Epochs, p.Workers, p.CrashEvents, p.TailAdvances = Derive, workers, 2, 0
				if f := Fuzz(p, 150, nil); f != nil {
					t.Fatalf("%s", f.Error())
				}
			})
		}
	}
}

// TestLongSegmentShape pins the long-segment shape: Epochs derives from a
// draw of its own, past every other, into [4K, 6K]; a single-writer round
// then runs that many epochs before its crash point; the replay line
// carries it and round-trips; and a round that does not ask for it resolves
// and prints exactly as it did before the shape existed (the strings
// TestResolveReplayCompatAcrossFGLRemoval pins are those of the parent).
func TestLongSegmentShape(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		p := NewRoundParams("bdhash", seed)
		p.Workers = 1
		plain := Resolve(p)
		if plain.Epochs != 0 {
			t.Fatalf("seed %d: Epochs = %d on a round that did not ask for the shape", seed, plain.Epochs)
		}
		p.Epochs = Derive
		long := Resolve(p)
		if long.Epochs < 4*epoch.JournalK || long.Epochs > 6*epoch.JournalK {
			t.Fatalf("seed %d: derived Epochs = %d, want in [%d, %d]", seed, long.Epochs, 4*epoch.JournalK, 6*epoch.JournalK)
		}
		if long.CrashAfter < long.Epochs*long.AdvEvery {
			t.Fatalf("seed %d: crash after %d ops at an advance every %d: fewer than %d epochs", seed, long.CrashAfter, long.AdvEvery, long.Epochs)
		}
		if long.CrashAfter, long.Epochs = plain.CrashAfter, 0; !reflect.DeepEqual(long, plain) {
			t.Fatalf("seed %d: asking for the shape moved other fields:\n%+v\n%+v", seed, long, plain)
		}
	}
	p := NewRoundParams("skiplist", 0xfeed)
	p.Epochs = Derive
	p = Resolve(p)
	q, err := ParseReplay(p.ReplayString())
	if err != nil {
		t.Fatal(err)
	}
	if q = Resolve(q); !reflect.DeepEqual(p, q) {
		t.Fatalf("long-segment replay round trip drifted:\n%+v\n%+v", p, q)
	}
}

// TestEarlyStepShape pins the early write-back step's place in the replay
// format: Early derives from a draw of its own, past every other, into
// [1, AdvEvery]; asking for it moves no other field; the replay line carries
// it and round-trips; and a round that does not ask prints the line it
// always printed.
func TestEarlyStepShape(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		p := NewRoundParams("veb", seed)
		plain := Resolve(p)
		if plain.Early != 0 || strings.Contains(plain.ReplayString(), "early=") {
			t.Fatalf("seed %d: %q on a round that did not ask for the step", seed, plain.ReplayString())
		}
		p.Early = Derive
		early := Resolve(p)
		if early.Early < 1 || early.Early > early.AdvEvery {
			t.Fatalf("seed %d: derived Early = %d, want in [1, %d]", seed, early.Early, early.AdvEvery)
		}
		q, err := ParseReplay(early.ReplayString())
		if err != nil {
			t.Fatal(err)
		}
		if q = Resolve(q); !reflect.DeepEqual(q, early) {
			t.Fatalf("seed %d: early replay round trip drifted:\n%+v\n%+v", seed, q, early)
		}
		if early.Early = 0; !reflect.DeepEqual(early, plain) {
			t.Fatalf("seed %d: asking for the step moved other fields:\n%+v\n%+v", seed, early, plain)
		}
	}
}
