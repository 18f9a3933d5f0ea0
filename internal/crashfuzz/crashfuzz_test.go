package crashfuzz

import (
	"fmt"
	"reflect"
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
		"subject=palloc seed=0x53fdd124f4244bb8 ops=8 workers=1 keyspace=64 evict=0.51 events=1 crash-after=8 crash-step=0 tail-adv=0 adv-every=21 spurious=0.05 memtype=0.00 shards=4 async=1 engine=undo rworkers=2",
		"subject=palloc seed=0xcc4121b295044b47 ops=75 workers=4 keyspace=64 evict=0.96 events=1 crash-after=2 crash-step=0 tail-adv=0 adv-every=11 spurious=0.00 memtype=0.00 shards=4 async=0 engine=redo2f rworkers=8",
		"subject=palloc seed=0x770eb37887dd1b48 ops=600 workers=1 keyspace=64 evict=0.72 events=1 crash-after=443 crash-step=4 tail-adv=0 adv-every=22 spurious=0.05 memtype=0.00 shards=1 async=0 engine=undo rworkers=2",
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
		c.Shards != a.Shards || c.Async != a.Async {
		t.Fatalf("overriding Ops shifted other derived fields:\n%+v\n%+v", a, c)
	}
}

// TestParseReplayDefaultsPipelineFields ensures replay specs recorded
// before the sharded advance pipeline existed still parse: shards= and
// async= are absent, stay at derive defaults, and Resolve fills them.
func TestParseReplayDefaultsPipelineFields(t *testing.T) {
	p, err := ParseReplay("subject=bdhash seed=0x1 ops=16 workers=1 keyspace=32 evict=0.50 events=1 crash-after=4 crash-step=0 tail-adv=0 adv-every=8 spurious=0.00 memtype=0.00")
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 0 || p.Async != Derive {
		t.Fatalf("old-format spec: Shards = %d (want 0 = derive), Async = %d (want %d = derive)", p.Shards, p.Async, Derive)
	}
	r := Resolve(p)
	if r.Shards != 1 && r.Shards != 4 {
		t.Fatalf("resolved Shards = %d, want 1 or 4", r.Shards)
	}
	if r.Async != 0 && r.Async != 1 {
		t.Fatalf("resolved Async = %d, want 0 or 1", r.Async)
	}
}

// TestResolveReplayCompatAcrossFGLRemoval pins the derived-parameter
// stream across the removal of the fgl= (global vs fine-grained fallback)
// axis: each want string is Resolve's output for that seed captured at the
// last commit that still had the axis, minus its trailing fgl= field. Every
// recorded seed, corpus entry and printed replay line therefore resolves
// to the same round as before. Old lines that carry fgl=0 or fgl=1 parse,
// and to identical params.
func TestResolveReplayCompatAcrossFGLRemoval(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{0x1, "subject=bdhash seed=0x1 ops=200 workers=1 keyspace=16 evict=0.26 events=1 crash-after=24 crash-step=0 tail-adv=2 adv-every=15 spurious=0.00 memtype=0.01 shards=4 async=0 engine=quadra rworkers=4"},
		{0x2, "subject=bdhash seed=0x2 ops=600 workers=4 keyspace=256 evict=0.14 events=1 crash-after=201 crash-step=0 tail-adv=2 adv-every=8 spurious=0.05 memtype=0.00 shards=1 async=0 engine=undo rworkers=1"},
		{0x3, "subject=bdhash seed=0x3 ops=200 workers=1 keyspace=16 evict=0.03 events=2 crash-after=65 crash-step=4 tail-adv=2 adv-every=30 spurious=0.00 memtype=0.00 shards=4 async=1 engine=redo2f rworkers=8"},
		{0xbd0ff, "subject=bdhash seed=0xbd0ff ops=200 workers=4 keyspace=256 evict=0.61 events=1 crash-after=167 crash-step=0 tail-adv=1 adv-every=28 spurious=0.05 memtype=0.00 shards=1 async=1 engine=undo rworkers=1"},
		{0x1234, "subject=bdhash seed=0x1234 ops=600 workers=1 keyspace=16 evict=0.06 events=2 crash-after=273 crash-step=14 tail-adv=1 adv-every=31 spurious=0.00 memtype=0.00 shards=4 async=0 engine=redo4f rworkers=8"},
		{0xdeadbeef, "subject=bdhash seed=0xdeadbeef ops=600 workers=1 keyspace=16 evict=0.95 events=1 crash-after=537 crash-step=40 tail-adv=1 adv-every=26 spurious=0.05 memtype=0.00 shards=1 async=1 engine=redo2f rworkers=4"},
		{0x9e3779b97f4a7c15, "subject=bdhash seed=0x9e3779b97f4a7c15 ops=64 workers=1 keyspace=16 evict=0.89 events=1 crash-after=29 crash-step=0 tail-adv=2 adv-every=28 spurious=0.05 memtype=0.00 shards=1 async=1 engine=quadra rworkers=2"},
		{0x2a, "subject=bdhash seed=0x2a ops=64 workers=4 keyspace=256 evict=0.22 events=1 crash-after=53 crash-step=0 tail-adv=0 adv-every=6 spurious=0.00 memtype=0.00 shards=1 async=1 engine=redo4f rworkers=4"},
	} {
		derive := NewRoundParams("bdhash", tc.seed)
		derive.Engine = "" // the captured strings derive it; CI may pin BDFUZZ_ENGINE
		got := Resolve(derive)
		if s := got.ReplayString(); s != tc.want {
			t.Errorf("seed %#x resolves differently:\n got %s\nwant %s", tc.seed, s, tc.want)
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

// pipelineConfigs is the persistence-path matrix the deterministic crash
// tests sweep: every flusher shard count crossed with both flusher
// schedules (async=1: the flusher step right after each advance).
var pipelineConfigs = []struct {
	name   string
	shards int
	async  int
}{
	{"shards=1", 1, 0},
	{"shards=4", 4, 0},
	{"shards=1+async", 1, 1},
	{"shards=4+async", 4, 1},
}

// TestCrashMidParallelFlush pins power failures inside the sharded flush
// fan-out: the persist hook fires at the n-th persist event past the
// crash point, landing mid-advance while per-shard flushers are writing
// back epoch-closure batches. The engine's crashCheck then asserts the
// full BDL contract — the recovery boundary P satisfies
// P >= crash_epoch - 2, the recovered state is exactly the end-of-epoch-P
// snapshot, and the allocator has one live block per key. Swept over
// every shards x schedule configuration so a torn per-shard batch (some
// shards flushed, others not, root unwritten) cannot surface as a
// phantom or lost key.
func TestCrashMidParallelFlush(t *testing.T) {
	for _, subject := range []string{"bdhash", "veb"} {
		for _, cfg := range pipelineConfigs {
			t.Run(subject+"/"+cfg.name, func(t *testing.T) {
				t.Parallel()
				for step := 1; step <= 24; step += 2 {
					p := RoundParams{
						Subject: subject, Seed: 0xbd5ead0000 + uint64(step),
						Ops: 48, Workers: 1, KeySpace: 32, Evict: 0.6,
						CrashEvents: 1, CrashAfter: 12, CrashStep: step,
						TailAdvances: 1, AdvEvery: 4, Spurious: 0, MemType: 0,
						Shards: cfg.shards, Async: cfg.async,
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
		for _, shards := range []int{1, 4} {
			subject, shards := subject, shards
			t.Run(fmt.Sprintf("%s/shards=%d", subject, shards), func(t *testing.T) {
				t.Parallel()
				for _, step := range []int{0, 1, 2, 3, 5, 8, 13} {
					p := RoundParams{
						Subject: subject, Seed: 0xa55bd0000 + uint64(step),
						Ops: 40, Workers: 1, KeySpace: 32, Evict: 1,
						CrashEvents: 2, CrashAfter: 9, CrashStep: step,
						TailAdvances: 2, AdvEvery: 3, Spurious: 0, MemType: 0,
						Shards: shards, Async: 1,
					}
					if f := RunRound(p); f != nil {
						t.Fatalf("crash-step %d: %s", step, f.Error())
					}
				}
			})
		}
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
// what it was — runs every body as a session instead. CI's engine matrix
// runs the long and session lanes alone (-run 'TestFuzzSoak/^(long|session)-')
// per engine.
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
