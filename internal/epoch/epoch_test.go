package epoch

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdhtm/internal/durability"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

func newManual(t *testing.T, words int) (*nvm.Heap, *System) {
	t.Helper()
	h := nvm.New(nvm.Config{Words: words})
	s := New(h, Config{Manual: true})
	return h, s
}

// putKV performs one complete BDL insert of a KV block and returns it.
func putKV(w *Worker, key, value uint64) Block {
	e := w.BeginOp()
	b := w.NewKV(0)
	b.InitKV(key, value)
	// Stamp the epoch (normally done inside the HTM transaction that
	// links the block; direct store is fine for a not-yet-visible block).
	hdr := palloc.UnpackHeader(w.sys.heap.Load(b.addr))
	hdr.Epoch = e
	w.sys.heap.Store(b.addr, hdr.Pack())
	w.PTrack(b)
	w.EndOp()
	return b
}

func recoverAll(h *nvm.Heap) (*System, map[uint64]uint64) {
	got := make(map[uint64]uint64)
	s := Recover(h, Config{Manual: true}, func(r BlockRecord) {
		got[r.Block.Key()] = r.Block.Value()
	})
	return s, got
}

func TestFreshSystemEpochs(t *testing.T) {
	_, s := newManual(t, 1<<16)
	if e := s.GlobalEpoch(); e != firstEpoch {
		t.Fatalf("GlobalEpoch = %d, want %d", e, firstEpoch)
	}
	if p := s.PersistedEpoch(); p != firstEpoch-2 {
		t.Fatalf("PersistedEpoch = %d, want %d", p, firstEpoch-2)
	}
	s.AdvanceOnce()
	if e := s.GlobalEpoch(); e != firstEpoch+1 {
		t.Fatalf("after advance GlobalEpoch = %d", e)
	}
	if p := s.PersistedEpoch(); p != firstEpoch-1 {
		t.Fatalf("after advance PersistedEpoch = %d", p)
	}
}

func TestTrackedBlockSurvivesCrashAfterSync(t *testing.T) {
	h, s := newManual(t, 1<<16)
	w := s.Register()
	putKV(w, 7, 70)
	s.Sync()
	s.SimulateCrash(nvm.CrashOptions{})
	_, got := recoverAll(h)
	if got[7] != 70 {
		t.Fatalf("recovered %v, want key 7 -> 70", got)
	}
}

func TestUnsyncedBlockLostAtCrash(t *testing.T) {
	h, s := newManual(t, 1<<16)
	w := s.Register()
	putKV(w, 7, 70) // tracked in the active epoch, never persisted
	s.SimulateCrash(nvm.CrashOptions{})
	_, got := recoverAll(h)
	if len(got) != 0 {
		t.Fatalf("recovered %v, want empty (epoch never persisted)", got)
	}
}

func TestUntrackedBlockReclaimed(t *testing.T) {
	h, s := newManual(t, 1<<16)
	w := s.Register()
	w.BeginOp()
	b := w.NewKV(0)
	b.InitKV(9, 90) // preallocated, epoch still invalid, never tracked
	w.EndOp()
	_ = b
	s.Sync()
	s.SimulateCrash(nvm.CrashOptions{})
	s2, got := recoverAll(h)
	if len(got) != 0 {
		t.Fatalf("recovered %v, want empty (invalid epoch)", got)
	}
	if s2.Allocator().LiveBlocks() != 0 {
		t.Fatalf("invalid-epoch block not reclaimed")
	}
}

func TestRetireReclaimsAfterTwoAdvances(t *testing.T) {
	_, s := newManual(t, 1<<16)
	w := s.Register()
	b := putKV(w, 1, 10)
	s.Sync()
	w.BeginOp()
	w.PRetire(b)
	w.EndOp()
	if st := s.Allocator().ReadHeader(b.Addr()).Status; st != palloc.Deleted {
		t.Fatalf("status after PRetire = %v, want DELETED", st)
	}
	s.AdvanceOnce() // persists the retire epoch; free is deferred
	s.AdvanceOnce() // reclaims
	if st := s.Allocator().ReadHeader(b.Addr()).Status; st != palloc.Free {
		t.Fatalf("status after two advances = %v, want FREE", st)
	}
	if s.Stats().FreedBlocks != 1 {
		t.Fatalf("FreedBlocks = %d, want 1", s.Stats().FreedBlocks)
	}
}

func TestUnpersistedDeletionResurrected(t *testing.T) {
	h, s := newManual(t, 1<<16)
	w := s.Register()
	b := putKV(w, 5, 50)
	s.Sync()
	// Retire in the new active epoch and crash before it persists. The
	// retire's DELETED marker is force-evicted to media to exercise the
	// resurrection path.
	w.BeginOp()
	w.PRetire(b)
	w.EndOp()
	s.SimulateCrash(nvm.CrashOptions{EvictFraction: 1})
	s2, got := recoverAll(h)
	if got[5] != 50 {
		t.Fatalf("recovered %v, want resurrected key 5 -> 50", got)
	}
	if s2.Stats().Resurrected != 1 {
		t.Fatalf("Resurrected = %d, want 1", s2.Stats().Resurrected)
	}
	if st := s2.Allocator().ReadHeader(b.Addr()).Status; st != palloc.Allocated {
		t.Fatalf("resurrected status = %v", st)
	}
}

func TestPersistedDeletionStaysDeleted(t *testing.T) {
	h, s := newManual(t, 1<<16)
	w := s.Register()
	b := putKV(w, 5, 50)
	s.Sync()
	w.BeginOp()
	w.PRetire(b)
	w.EndOp()
	s.Sync() // deletion epoch persists
	s.SimulateCrash(nvm.CrashOptions{})
	_, got := recoverAll(h)
	if len(got) != 0 {
		t.Fatalf("recovered %v, want empty (deletion persisted)", got)
	}
}

func TestAbortOpDiscardsTracking(t *testing.T) {
	h, s := newManual(t, 1<<16)
	w := s.Register()
	w.BeginOp()
	b := w.NewKV(0)
	b.InitKV(3, 30)
	hdr := palloc.UnpackHeader(h.Load(b.Addr()))
	hdr.Epoch = w.OpEpoch()
	h.Store(b.Addr(), hdr.Pack())
	w.PTrack(b)
	w.AbortOp() // restart: tracking dropped
	s.Sync()
	s.SimulateCrash(nvm.CrashOptions{})
	_, got := recoverAll(h)
	// The block carried a real epoch that persisted-by-number, but it was
	// never flushed (tracking aborted), so its payload is gone; recovery
	// may keep the header but the key reads as zero. The essential check:
	// key 3 must not map to 30.
	if got[3] == 30 {
		t.Fatalf("aborted op's data survived: %v", got)
	}
}

func TestPNewInsideTxnPanics(t *testing.T) {
	_, s := newManual(t, 1<<16)
	w := s.Register()
	tm := htm.Default()
	w.BeginOp()
	defer w.EndOp()
	defer func() {
		if recover() == nil {
			t.Fatal("PNew inside transaction should panic")
		}
	}()
	w.Attempt(tm, func(tx *htm.Tx) {
		w.PNew(2, 0)
	})
}

// The guard covers the body's other mode too: on a TM whose every attempt
// is killed the body runs only as a session, where PNew would flush while
// holding line locks. The panic must leave neither the worker flagged nor
// the session's lines locked.
func TestPNewInsideSessionPanics(t *testing.T) {
	_, s := newManual(t, 1<<16)
	w := s.Register()
	tm := htm.New(htm.Config{SpuriousRate: 1})
	w.BeginOp()
	defer w.EndOp()
	var x uint64
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PNew inside a session should panic")
			}
		}()
		w.Run(tm, 1, nil, func(tx *htm.Tx) {
			if !tx.InSession() {
				t.Error("body ran as a transaction on a TM that kills every attempt")
			}
			tx.Store(&x, 1)
			w.PNew(2, 0)
		})
	}()
	if w.InTxn() {
		t.Fatal("worker still marked in-txn after the panic")
	}
	if res := tm.RunSession(func(tx *htm.Tx) { tx.Store(&x, tx.Load(&x)+2) }); !res.Committed || x != 2 {
		t.Fatalf("session after the panic: %+v, x = %d (want committed, 2)", res, x)
	}
}

func TestWorkerPoolReuse(t *testing.T) {
	_, s := newManual(t, 1<<16)
	w1 := s.Register()
	id := w1.ID()
	s.Release(w1)
	w2 := s.Register()
	if w2.ID() != id {
		t.Fatalf("expected pooled worker reuse: got id %d, want %d", w2.ID(), id)
	}
}

func TestReleaseWithOpenOpPanics(t *testing.T) {
	_, s := newManual(t, 1<<16)
	w := s.Register()
	w.BeginOp()
	defer func() {
		if recover() == nil {
			t.Fatal("Release with open op should panic")
		}
	}()
	s.Release(w)
}

func TestBackgroundAdvancer(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 16})
	s := New(h, Config{EpochLength: time.Millisecond})
	w := s.Register()
	putKV(w, 11, 110)
	deadline := time.Now().Add(2 * time.Second)
	for s.PersistedEpoch() < firstEpoch && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.SimulateCrash(nvm.CrashOptions{})
	_, got := recoverAll(h)
	if got[11] != 110 {
		t.Fatalf("background advancer did not persist: %v", got)
	}
}

func TestEADRDisablesBuffering(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 16, Mode: nvm.ModeEADR})
	s := New(h, Config{Manual: true})
	w := s.Register()
	putKV(w, 42, 420) // never synced
	before := h.Stats().Flushes
	s.AdvanceOnce()
	// eADR: the persister should not flush data blocks (root updates only).
	if d := h.Stats().Flushes - before; d > 4 {
		t.Fatalf("eADR advance issued %d flushes, want at most the root", d)
	}
	s.SimulateCrash(nvm.CrashOptions{})
	_, got := recoverAll(h)
	if got[42] != 420 {
		t.Fatalf("eADR recovery lost data: %v", got)
	}
}

func TestEpochsConfineOps(t *testing.T) {
	_, s := newManual(t, 1<<16)
	w := s.Register()
	e1 := w.BeginOp()
	w.EndOp()
	s.AdvanceOnce()
	e2 := w.BeginOp()
	w.EndOp()
	if e2 != e1+1 {
		t.Fatalf("op epochs %d then %d, want consecutive", e1, e2)
	}
}

func TestAdvanceWaitsForInFlight(t *testing.T) {
	_, s := newManual(t, 1<<16)
	w := s.Register()
	w.BeginOp()
	advanced := make(chan struct{})
	go func() {
		s.AdvanceOnce() // must wait for epoch e-1? e-1 has no ops...
		s.AdvanceOnce() // this one waits for w's op (now in-flight)
		close(advanced)
	}()
	select {
	case <-advanced:
		t.Fatal("advance completed while an in-flight op was open")
	case <-time.After(50 * time.Millisecond):
	}
	w.EndOp()
	select {
	case <-advanced:
	case <-time.After(2 * time.Second):
		t.Fatal("advance did not complete after op ended")
	}
}

func TestConcurrentWorkers(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 20})
	s := New(h, Config{EpochLength: 2 * time.Millisecond})
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := s.Register()
			defer s.Release(w)
			for i := 0; i < perG; i++ {
				putKV(w, uint64(id*perG+i), uint64(i))
			}
		}(g)
	}
	wg.Wait()
	s.Sync()
	s.SimulateCrash(nvm.CrashOptions{})
	_, got := recoverAll(h)
	if len(got) != goroutines*perG {
		t.Fatalf("recovered %d blocks, want %d", len(got), goroutines*perG)
	}
}

// TestRegisterConcurrentDistinctIDs pins Register's id claim: concurrent
// callers must never hold the same worker at once (they would share one
// announcement slot), and every slot below nWorkers must be filled, since
// waitQuiesce walks them lock-free while the advancer runs.
func TestRegisterConcurrentDistinctIDs(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 16})
	s := New(h, Config{EpochLength: 200 * time.Microsecond})
	defer s.Stop()
	const goroutines = 64
	const rounds = 50
	live := make([]atomic.Bool, s.cfg.MaxWorkers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				w := s.Register()
				if !live[w.ID()].CompareAndSwap(false, true) {
					t.Errorf("worker id %d handed to two live callers", w.ID())
				}
				w.BeginOp()
				w.EndOp()
				live[w.ID()].Store(false)
				s.Release(w)
			}
		}()
	}
	close(start)
	wg.Wait()
	n := int(s.nWorkers.Load())
	if n == 0 || n > goroutines {
		t.Fatalf("nWorkers = %d, want 1..%d", n, goroutines)
	}
	for i := 0; i < n; i++ {
		if s.workers[i] == nil {
			t.Fatalf("nil worker slot %d below nWorkers %d", i, n)
		}
		if s.workers[i].id != i {
			t.Fatalf("workers[%d].id = %d", i, s.workers[i].id)
		}
	}
}

// TestBDLPrefixConsistency is the central correctness property of the
// whole system: after a crash at an arbitrary point, with an arbitrary
// subset of dirty cache lines having reached the media, recovery yields
// EXACTLY the live KV set as of the end of the persisted epoch P — a
// consistent prefix of the single-threaded history.
func TestBDLPrefixConsistency(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial)+1, 0xBD))
		h := nvm.New(nvm.Config{Words: 1 << 18})
		s := New(h, Config{Manual: true})
		w := s.Register()

		live := make(map[uint64]Block) // current model state
		type snap struct{ keys map[uint64]uint64 }
		snaps := make(map[uint64]snap) // state at the end of each epoch
		snapshot := func() snap {
			m := make(map[uint64]uint64, len(live))
			for k, b := range live {
				m[k] = b.Value()
			}
			return snap{keys: m}
		}
		snaps[s.GlobalEpoch()-2] = snap{keys: map[uint64]uint64{}}
		snaps[s.GlobalEpoch()-1] = snap{keys: map[uint64]uint64{}}

		steps := 100 + int(rng.Uint64N(200))
		for i := 0; i < steps; i++ {
			switch rng.Uint64N(10) {
			case 0: // epoch advance
				snaps[s.GlobalEpoch()] = snapshot()
				s.AdvanceOnce()
			case 1, 2, 3: // remove, if possible
				if len(live) == 0 {
					continue
				}
				var k uint64
				for k = range live {
					break
				}
				w.BeginOp()
				w.PRetire(live[k])
				w.EndOp()
				delete(live, k)
			default: // insert/overwrite
				k := rng.Uint64N(64)
				if old, ok := live[k]; ok {
					w.BeginOp()
					w.PRetire(old)
					w.EndOp()
				}
				live[k] = putKV(w, k, rng.Uint64())
			}
		}
		snaps[s.GlobalEpoch()] = snapshot()

		s.SimulateCrash(nvm.CrashOptions{
			EvictFraction: float64(rng.Uint64N(101)) / 100,
			Seed:          rng.Uint64() | 1,
		})
		p := h.Load(durability.WatermarkAddr)
		want, ok := snaps[p]
		if !ok {
			t.Fatalf("trial %d: no snapshot for persisted epoch %d", trial, p)
		}
		_, got := recoverAll(h)
		if len(got) != len(want.keys) {
			t.Fatalf("trial %d: recovered %d keys, want %d (epoch %d)\n got=%v\nwant=%v",
				trial, len(got), len(want.keys), p, got, want.keys)
		}
		for k, v := range want.keys {
			if got[k] != v {
				t.Fatalf("trial %d: key %d = %d, want %d (epoch %d)", trial, k, got[k], v, p)
			}
		}
	}
}

func TestRecoverUnformattedPanics(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 12})
	defer func() {
		if recover() == nil {
			t.Fatal("Recover on unformatted heap should panic")
		}
	}()
	Recover(h, Config{Manual: true}, nil)
}

func TestStatsProgression(t *testing.T) {
	_, s := newManual(t, 1<<16)
	w := s.Register()
	b := putKV(w, 1, 2)
	s.Sync()
	w.BeginOp()
	w.PRetire(b)
	w.EndOp()
	s.Sync()
	s.AdvanceOnce()
	st := s.Stats()
	if st.Advances == 0 || st.FlushedBlocks == 0 || st.RetiredBlocks != 1 || st.FreedBlocks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
