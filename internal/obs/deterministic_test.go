// Deterministic-stats suite: scripted single-threaded runs against the
// real substrate and structures must produce exactly predictable layer
// counters (nvm.Stats, htm.Stats, epoch.Stats) and obs histograms, and the
// attempt histograms must agree with htm.Stats attempt for attempt. These
// tests are what pins the counting and instrumentation hooks in place:
// removing or double-firing one breaks an exact equality here, not a
// tolerance.
package obs_test

import (
	"sync/atomic"
	"testing"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/harness"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// TestExactFlushCounts scripts stores and flushes on an ADR heap and
// checks the heap's stats give the exact event counts.
func TestExactFlushCounts(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 16})

	const n = 10
	for i := uint64(0); i < n; i++ {
		a := nvm.Addr(nvm.RootWords + i*nvm.LineWords)
		h.Store(a, i+1)
		h.Flush(a) // dirty line: flush + one line write-back
	}
	h.Fence()

	s := h.Stats()
	if s.Flushes != n || s.LineWritebacks != n || s.Fences != 1 {
		t.Errorf("flushes/write-backs/fences = %d/%d/%d, want %d/%d/1", s.Flushes, s.LineWritebacks, s.Fences, n, n)
	}

	// Re-flushing clean lines: flushes count, write-backs do not.
	h.FlushRange(nvm.Addr(nvm.RootWords), 3*nvm.LineWords)
	s = h.Stats()
	if s.Flushes != n+3 {
		t.Errorf("flushes after FlushRange = %d, want %d", s.Flushes, n+3)
	}
	if s.LineWritebacks != n {
		t.Errorf("write-backs after clean FlushRange = %d, want %d", s.LineWritebacks, n)
	}
	if s.UsefulBytes > s.MediaBytes {
		t.Errorf("useful bytes %d > media bytes %d", s.UsefulBytes, s.MediaBytes)
	}
}

// TestEADRNoFlushes: under eADR every store is durable at visibility, so
// a scripted run must record zero flushes and fences while still counting
// every operation.
func TestEADRNoFlushes(t *testing.T) {
	rec := obs.New()
	inst := harness.New("spash-eadr", harness.Opts{KeySpace: 1 << 10, Obs: rec})
	defer inst.Close()
	h := inst.Store.NewSession()
	const n = 64
	for k := uint64(0); k < n; k++ {
		h.Insert(k, k+1)
	}
	if s := inst.Heap.Stats(); s.Flushes != 0 || s.Fences != 0 {
		t.Errorf("eADR flushes/fences = %d/%d, want 0/0", s.Flushes, s.Fences)
	}
	if got := rec.OpHist(obs.OpInsert).Count; got != n {
		t.Errorf("insert count = %d, want %d", got, n)
	}
}

// TestForcedMemTypeAbort reproduces the Fig. 2 anomaly deterministically:
// with MemTypeRate 1 Run's first attempt aborts MEMTYPE, and its
// pre-walked retry commits. Exactly one abort and one commit land in obs,
// mirroring the TM's own counters.
func TestForcedMemTypeAbort(t *testing.T) {
	rec := obs.New()
	tm := htm.New(htm.Config{MemTypeRate: 1})
	tm.SetObs(rec)

	preWalks := 0
	res := tm.Run(nil, func() { preWalks++ }, func(tx *htm.Tx) {})
	if !res.Committed || preWalks != 1 {
		t.Fatalf("Run = %+v after %d pre-walks, want a commit after 1", res, preWalks)
	}

	if got := rec.AttemptHist(obs.OutMemType).Count; got != 1 {
		t.Errorf("memtype attempts = %d, want exactly 1", got)
	}
	if got := rec.AttemptHist(obs.OutCommit).Count; got != 1 {
		t.Errorf("commit attempts = %d, want exactly 1", got)
	}
	s := tm.Stats()
	if s.MemType != 1 || s.Commits != 1 || s.Attempts() != 2 {
		t.Errorf("TM stats = %+v, want 1 memtype + 1 commit", s)
	}
	var histTotal int64
	for o := obs.Outcome(0); o < obs.NumOutcomes; o++ {
		histTotal += rec.AttemptHist(o).Count
	}
	if histTotal != s.Attempts() {
		t.Errorf("obs attempt total %d != TM attempts %d", histTotal, s.Attempts())
	}
}

// subjectBuilders is every harness structure, built with a fresh recorder
// attached to all of its components.
var subjectBuilders = []struct {
	name, kind string
}{
	{"HTM-vEB", "veb-transient"},
	{"PHTM-vEB", "veb"},
	{"LB+Tree", "lbtree"},
	{"OCC-abtree", "abtree-occ"},
	{"Elim-abtree", "abtree-elim"},
	{"CCEH", "cceh"},
	{"Plush", "plush"},
	{"Spash", "spash-eadr"},
	{"BD-Spash", "spash"},
	{"BD-Hash", "bdhash"},
	{"DL-Skiplist", "skiplist-dl"},
	{"BDL-Skiplist", "skiplist"},
}

// TestStructureOpCounts drives every structure through a scripted
// single-threaded run and checks each public operation records exactly
// one histogram entry of the right kind — no missed ops, no
// double-counted ops (e.g. an Insert internally reusing the public
// Get) — plus the cross-layer invariants.
func TestStructureOpCounts(t *testing.T) {
	const inserts, lookups, removes = 100, 50, 25
	for _, b := range subjectBuilders {
		t.Run(b.name, func(t *testing.T) {
			rec := obs.New()
			inst := harness.New(b.kind, harness.Opts{KeySpace: 1 << 10, Obs: rec, Manual: true})
			defer inst.Close()
			h := inst.Store.NewSession()
			for k := uint64(0); k < inserts; k++ {
				h.Insert(k, k+1)
			}
			for k := uint64(0); k < lookups; k++ {
				if v, ok := h.Get(k); !ok || v != k+1 {
					t.Fatalf("Get(%d) = %d,%v after insert", k, v, ok)
				}
			}
			for k := uint64(0); k < removes; k++ {
				h.Remove(k)
			}

			if got := rec.OpHist(obs.OpInsert).Count; got != inserts {
				t.Errorf("insert histogram = %d, want %d", got, inserts)
			}
			if got := rec.OpHist(obs.OpLookup).Count; got != lookups {
				t.Errorf("lookup histogram = %d, want %d", got, lookups)
			}
			if got := rec.OpHist(obs.OpRemove).Count; got != removes {
				t.Errorf("remove histogram = %d, want %d", got, removes)
			}

			// Attempts == commits + aborts, and obs mirrors the TM exactly.
			if inst.TM != nil {
				s := inst.TM.Stats()
				if s.Attempts() != s.Commits+s.Conflict+s.Capacity+s.Explicit+s.Spurious+s.MemType+s.PersistOp {
					t.Errorf("TM attempts %d != commits+aborts", s.Attempts())
				}
				var histTotal int64
				for o := obs.Outcome(0); o < obs.NumOutcomes; o++ {
					histTotal += rec.AttemptHist(o).Count
				}
				if histTotal != s.Attempts() {
					t.Errorf("obs attempt total %d != TM attempts %d", histTotal, s.Attempts())
				}
				if got := rec.AttemptHist(obs.OutCommit).Count; got != s.Commits {
					t.Errorf("obs commits %d != TM commits %d", got, s.Commits)
				}
			}

			if inst.Heap != nil {
				if s := inst.Heap.Stats(); s.UsefulBytes > s.MediaBytes {
					t.Errorf("useful bytes %d > media bytes %d", s.UsefulBytes, s.MediaBytes)
				}
			}
		})
	}
}

// TestEpochPhaseAccounting: with a manual epoch system, Sync closes
// exactly one epoch and runs a known number of flush tasks; obs must
// record every phase of every task exactly once.
func TestEpochPhaseAccounting(t *testing.T) {
	rec := obs.New()
	inst := harness.New("veb", harness.Opts{KeySpace: 1 << 10, Obs: rec, Manual: true})
	defer inst.Close()
	h := inst.Store.NewSession()
	for k := uint64(0); k < 200; k++ {
		h.Insert(k, k)
	}
	inst.Sync()

	st := inst.Sys.Stats()
	if st.Advances != 1 {
		t.Fatalf("Sync performed %d advances, want exactly 1", st.Advances)
	}
	// On a fresh system Sync runs two tasks: the catch-up of the epoch
	// below the first one, and the flush of the epoch it closed.
	if st.EngineCommits != 2 {
		t.Fatalf("Sync ran %d flush tasks, want 2", st.EngineCommits)
	}
	for p := obs.EpochPhase(0); p < obs.NumEpochPhases; p++ {
		if got := rec.PhaseHist(p).Count; got != st.EngineCommits {
			t.Errorf("phase %v recorded %d times, want once per flush task (%d)", p, got, st.EngineCommits)
		}
	}
}

// TestEpochCounterParity drives every structure through a scripted run and
// checks epoch.Stats' block-lifecycle counters against each other: freed
// never exceeds retired, early write-backs are a nonzero subset of the
// flushed blocks, and the journal holds one record per retirement.
// Transient and strict structures have no epoch system; for those the test
// only asserts the scripted ops complete.
func TestEpochCounterParity(t *testing.T) {
	for _, b := range subjectBuilders {
		t.Run(b.name, func(t *testing.T) {
			rec := obs.New()
			inst := harness.New(b.kind, harness.Opts{KeySpace: 1 << 10, Obs: rec, Manual: true})
			defer inst.Close()
			h := inst.Store.NewSession()
			for k := uint64(0); k < 240; k++ {
				h.Insert(k, k+1)
			}
			if inst.Sys != nil {
				inst.Sys.FlushEarly() // the inserts so far are written back early
			}
			for k := uint64(0); k < 240; k += 2 {
				h.Insert(k, k+2) // upserts retire the replaced blocks
			}
			for k := uint64(1); k < 240; k += 4 {
				h.Remove(k)
			}
			if inst.Sys == nil {
				return // no persistence path to count
			}
			inst.Sync()
			st := inst.Sys.Stats()
			if st.FreedBlocks > st.RetiredBlocks {
				t.Errorf("freed %d > retired %d", st.FreedBlocks, st.RetiredBlocks)
			}
			if st.RetiredBlocks == 0 {
				t.Error("scripted upserts retired no blocks; the checks are vacuous")
			}
			// Early write-backs are a subset of the flushed blocks.
			if early := st.EarlyFlushedBlocks; early == 0 || early > st.FlushedBlocks {
				t.Errorf("early-flushed %d of %d flushed: want nonzero, a subset", early, st.FlushedBlocks)
			}
			// One journal record per retirement once every retire epoch has
			// been flushed.
			if st.JournalRecords != st.RetiredBlocks {
				t.Errorf("journal records %d != retired %d", st.JournalRecords, st.RetiredBlocks)
			}
		})
	}
}

// TestForcedBackpressure scripts the one schedule where an advance must
// block: the background flusher is parked mid-flush on a gate while a
// second epoch is already pending, so the third AdvanceOnce finds the
// pipeline full, counts exactly one backpressure event, and waits. The
// gate is released only after the waiter is observed, making the count
// deterministic rather than timing-dependent.
func TestForcedBackpressure(t *testing.T) {
	rec := obs.New()
	heap := nvm.New(nvm.Config{Words: 1 << 16})
	sys := epoch.New(heap, epoch.Config{
		EpochLength: time.Hour, // the advancer never fires; the test owns every advance
		Obs:         rec,
	})
	defer sys.Stop()

	var gateOn atomic.Bool
	release := make(chan struct{})
	heap.SetPersistHook(func(nvm.PersistPoint, nvm.Addr) {
		if gateOn.Load() {
			<-release
		}
	})

	waitPersisted := func(e uint64) {
		t.Helper()
		for i := 0; i < 10000; i++ {
			if sys.PersistedEpoch() >= e {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		t.Fatalf("flusher never persisted epoch %d (persisted %d)", e, sys.PersistedEpoch())
	}

	sys.AdvanceOnce() // posts epoch 2 to the flusher
	waitPersisted(2)

	gateOn.Store(true)
	sys.AdvanceOnce() // posts epoch 3; flusher parks on the gate mid-flush

	done := make(chan struct{})
	go func() {
		defer close(done)
		sys.AdvanceOnce() // pipeline full: must count backpressure and wait
	}()

	deadline := time.Now().Add(5 * time.Second)
	for sys.Stats().Backpressure == 0 {
		if time.Now().After(deadline) {
			t.Fatal("third advance never registered backpressure")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case <-done:
		t.Fatal("third advance returned while the flusher was parked")
	default:
	}
	if got := sys.Stats().FlusherDepth; got != 1 {
		t.Errorf("flusher depth = %d with epoch 3 parked mid-flush, want 1", got)
	}

	gateOn.Store(false)
	close(release)
	<-done
	waitPersisted(4)

	if got := sys.Stats().Backpressure; got != 1 {
		t.Errorf("backpressure events = %d, want exactly 1", got)
	}
	if got := sys.Stats().FlusherDepth; got != 0 {
		t.Errorf("flusher depth = %d after drain, want 0", got)
	}
}

// TestObsSurvivesCrash: a recorder on an epoch system keeps recording
// phase samples across SimulateCrash and Recover, one sample of every
// phase per flush task, while the heap keeps its own crash and flush
// counts.
func TestObsSurvivesCrash(t *testing.T) {
	rec := obs.New()
	h := nvm.New(nvm.Config{Words: 1 << 16})
	cfg := epoch.Config{Manual: true, Obs: rec}
	tasks := func() int64 {
		t.Helper()
		n := rec.PhaseHist(obs.PhaseQuiesce).Count
		for p := obs.EpochPhase(0); p < obs.NumEpochPhases; p++ {
			if got := rec.PhaseHist(p).Count; got != n {
				t.Fatalf("phase %v recorded %d times, quiesce %d", p, got, n)
			}
		}
		return n
	}

	sys := epoch.New(h, cfg)
	sys.Sync()
	before, flushes := tasks(), h.Stats().Flushes
	if before == 0 || flushes == 0 {
		t.Fatalf("before the crash: %d flush tasks, %d heap flushes, want both nonzero", before, flushes)
	}
	sys.SimulateCrash(nvm.CrashOptions{})
	if got := h.Crashes(); got != 1 {
		t.Fatalf("heap crashes = %d, want 1", got)
	}
	if got := h.Stats().Flushes; got != flushes {
		t.Errorf("crash moved the heap's flushes from %d to %d", flushes, got)
	}

	sys = epoch.Recover(h, cfg, nil)
	defer sys.Stop()
	sys.Sync()
	if got := tasks(); got <= before {
		t.Errorf("flush tasks recorded = %d after recovery and a Sync, want more than %d", got, before)
	}
	if got := h.Stats().Flushes; got <= flushes {
		t.Errorf("post-crash heap flushes = %d, want more than %d", got, flushes)
	}
}

// TestIdleRatesAreOne is the regression test for the idle-division fix:
// a TM with no attempts reports commit rate 1.0 (not 0), and a heap that
// wrote nothing back reports write amplification 1.0.
func TestIdleRatesAreOne(t *testing.T) {
	if got := htm.Default().Stats().CommitRate(); got != 1.0 {
		t.Errorf("idle CommitRate = %v, want 1.0", got)
	}
	h := nvm.New(nvm.Config{Words: 1 << 12})
	if got := h.Stats().WriteAmplification(); got != 1.0 {
		t.Errorf("idle WriteAmplification = %v, want 1.0", got)
	}
}

// runScripted is the shared loop for the overhead benchmarks: a fixed
// single-threaded op sequence against HTM-vEB.
func runScripted(b *testing.B, o harness.Opts) {
	inst := harness.New("veb-transient", o)
	defer inst.Close()
	h := inst.Store.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) & 1023
		h.Insert(k, k)
		h.Get(k)
		h.Remove(k)
	}
}

// BenchmarkObsOff / BenchmarkObsOn quantify the instrumentation budget
// (ISSUE: disabled overhead one nil check, enabled ≤5%):
//
//	go test ./internal/obs -bench 'Obs(Off|On)' -count 10 | benchstat
func BenchmarkObsOff(b *testing.B) {
	runScripted(b, harness.Opts{KeySpace: 1 << 10})
}

func BenchmarkObsOn(b *testing.B) {
	runScripted(b, harness.Opts{KeySpace: 1 << 10, Obs: obs.New()})
}
