package bdhash

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

type fixture struct {
	heap *nvm.Heap
	sys  *epoch.System
	tm   *htm.TM
	tab  *Table
	w    *epoch.Worker
}

func newFixture(t *testing.T, capacity int) *fixture {
	t.Helper()
	return newFixtureOn(t, 1<<20, capacity)
}

// newFixtureOn builds the fixture on a heap of the given words.
func newFixtureOn(t *testing.T, words, capacity int) *fixture {
	t.Helper()
	h := nvm.New(nvm.Config{Words: words})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tm := htm.Default()
	tab := New(sys, tm, capacity, 1)
	return &fixture{heap: h, sys: sys, tm: tm, tab: tab, w: sys.Register()}
}

// recoverTable crashes the fixture and rebuilds a fresh table from NVM.
func (f *fixture) recoverTable(t *testing.T, opts nvm.CrashOptions, capacity int) *Table {
	t.Helper()
	f.sys.SimulateCrash(opts)
	var recs []epoch.BlockRecord
	sys2 := epoch.Recover(f.heap, epoch.Config{Manual: true}, func(r epoch.BlockRecord) {
		recs = append(recs, r)
	})
	tm2 := htm.Default()
	tab2 := New(sys2, tm2, capacity, 1)
	for _, r := range recs {
		tab2.RebuildBlock(r)
	}
	f.sys, f.tm, f.tab = sys2, tm2, tab2
	f.w = sys2.Register()
	return tab2
}

func TestInsertGet(t *testing.T) {
	f := newFixture(t, 1024)
	if replaced := f.tab.Insert(f.w, 5, 50); replaced {
		t.Fatal("fresh insert reported replacement")
	}
	v, ok := f.tab.Get(5)
	if !ok || v != 50 {
		t.Fatalf("Get(5) = %d,%v", v, ok)
	}
	if _, ok := f.tab.Get(6); ok {
		t.Fatal("Get(6) found a missing key")
	}
}

func TestInsertReplaceSameEpoch(t *testing.T) {
	f := newFixture(t, 1024)
	f.tab.Insert(f.w, 5, 50)
	if replaced := f.tab.Insert(f.w, 5, 51); !replaced {
		t.Fatal("overwrite not reported as replacement")
	}
	v, _ := f.tab.Get(5)
	if v != 51 {
		t.Fatalf("value after in-place update = %d", v)
	}
	if f.tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", f.tab.Len())
	}
}

func TestInsertReplaceAcrossEpochs(t *testing.T) {
	f := newFixture(t, 1024)
	f.tab.Insert(f.w, 5, 50)
	before := f.sys.Allocator().LiveBlocks()
	f.sys.AdvanceOnce()
	f.tab.Insert(f.w, 5, 51) // different epoch: out-of-place replace
	v, _ := f.tab.Get(5)
	if v != 51 {
		t.Fatalf("value after cross-epoch update = %d", v)
	}
	// Old block retired but not yet reclaimed: up to two copies coexist.
	if live := f.sys.Allocator().LiveBlocks(); live != before+1 {
		t.Fatalf("live blocks = %d, want %d (old copy retained for recovery)", live, before+1)
	}
	f.sys.Sync()
	f.sys.AdvanceOnce()
	if live := f.sys.Allocator().LiveBlocks(); live != before {
		t.Fatalf("live blocks after retire persisted = %d, want %d", live, before)
	}
}

func TestRemove(t *testing.T) {
	f := newFixture(t, 1024)
	f.tab.Insert(f.w, 5, 50)
	if !f.tab.Remove(f.w, 5) {
		t.Fatal("Remove(5) = false")
	}
	if _, ok := f.tab.Get(5); ok {
		t.Fatal("key still present after remove")
	}
	if f.tab.Remove(f.w, 5) {
		t.Fatal("second Remove(5) = true")
	}
	if f.tab.Len() != 0 {
		t.Fatalf("Len = %d", f.tab.Len())
	}
}

func TestManyKeys(t *testing.T) {
	f := newFixture(t, 4096)
	for k := uint64(0); k < 2000; k++ {
		f.tab.Insert(f.w, k, k*10)
	}
	if f.tab.Len() != 2000 {
		t.Fatalf("Len = %d", f.tab.Len())
	}
	for k := uint64(0); k < 2000; k++ {
		if v, ok := f.tab.Get(k); !ok || v != k*10 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestCrashRecoverySynced(t *testing.T) {
	f := newFixture(t, 1024)
	for k := uint64(0); k < 100; k++ {
		f.tab.Insert(f.w, k, k+1000)
	}
	f.sys.Sync()
	tab2 := f.recoverTable(t, nvm.CrashOptions{}, 1024)
	if tab2.Len() != 100 {
		t.Fatalf("recovered Len = %d, want 100", tab2.Len())
	}
	for k := uint64(0); k < 100; k++ {
		if v, ok := tab2.Get(k); !ok || v != k+1000 {
			t.Fatalf("recovered Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestCrashLosesUnsyncedTail(t *testing.T) {
	f := newFixture(t, 1024)
	f.tab.Insert(f.w, 1, 11)
	f.sys.Sync()
	f.tab.Insert(f.w, 2, 22) // active epoch, not persisted
	tab2 := f.recoverTable(t, nvm.CrashOptions{}, 1024)
	if _, ok := tab2.Get(1); !ok {
		t.Fatal("synced key lost")
	}
	if _, ok := tab2.Get(2); ok {
		t.Fatal("unsynced key survived (should be in a discarded epoch)")
	}
}

func TestCrashRecoverEvictedLinesDiscarded(t *testing.T) {
	// Even when the cache wrote back every dirty line before the crash,
	// blocks from unpersisted epochs must be discarded by epoch numbers.
	f := newFixture(t, 1024)
	f.tab.Insert(f.w, 1, 11)
	f.sys.Sync()
	f.tab.Insert(f.w, 2, 22)
	tab2 := f.recoverTable(t, nvm.CrashOptions{EvictFraction: 1}, 1024)
	if _, ok := tab2.Get(1); !ok {
		t.Fatal("synced key lost")
	}
	if _, ok := tab2.Get(2); ok {
		t.Fatal("unpersisted-epoch key resurrected by stray eviction")
	}
}

func TestRemoveThenCrashBeforePersist(t *testing.T) {
	f := newFixture(t, 1024)
	f.tab.Insert(f.w, 9, 99)
	f.sys.Sync()
	f.tab.Remove(f.w, 9) // removal in active epoch, unpersisted
	tab2 := f.recoverTable(t, nvm.CrashOptions{EvictFraction: 1}, 1024)
	if v, ok := tab2.Get(9); !ok || v != 99 {
		t.Fatalf("unpersisted removal should roll back: Get(9) = %d,%v", v, ok)
	}
}

func TestRemoveThenCrashAfterPersist(t *testing.T) {
	f := newFixture(t, 1024)
	f.tab.Insert(f.w, 9, 99)
	f.sys.Sync()
	f.tab.Remove(f.w, 9)
	f.sys.Sync()
	tab2 := f.recoverTable(t, nvm.CrashOptions{}, 1024)
	if _, ok := tab2.Get(9); ok {
		t.Fatal("persisted removal resurrected")
	}
}

// TestFallbackPathCrashRecovery drives every operation down the slow
// path (SpuriousRate 1 kills each transactional attempt before it
// runs) and then power-fails at a persist event, so the crash lands in a
// history written entirely by fallback sessions. Sessions buffer their
// writes and apply them under per-line locks, so the recovered image
// must obey the same epoch-prefix contract as the transactional path.
func TestFallbackPathCrashRecovery(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 20})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tm := htm.New(htm.Config{SpuriousRate: 1})
	tab := New(sys, tm, 1024, 1)
	w := sys.Register()
	for k := uint64(0); k < 32; k++ {
		tab.Insert(w, k, k+1000)
	}
	for k := uint64(0); k < 32; k += 4 {
		if !tab.Remove(w, k) {
			t.Fatalf("Remove(%d) = false on the slow path", k)
		}
	}
	if s := tm.Stats(); s.FallbackAcquires == 0 {
		t.Fatalf("no fallback sessions despite SpuriousRate=1: %+v", s)
	}
	sys.Sync()
	tab.Insert(w, 99, 9999) // unsynced tail, also via the slow path

	// Power-fail at the 3rd persist event of the next epoch closure.
	var countdown int64 = 3
	h.SetPersistHook(func(nvm.PersistPoint, nvm.Addr) {
		if atomic.AddInt64(&countdown, -1) <= 0 {
			panic("power failure")
		}
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("sync completed despite the persist-hook crash")
			}
		}()
		sys.Sync()
	}()
	h.SetPersistHook(nil)

	sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 1, Seed: 7})
	var recs []epoch.BlockRecord
	sys2 := epoch.Recover(h, epoch.Config{Manual: true}, func(r epoch.BlockRecord) {
		recs = append(recs, r)
	})
	tab2 := New(sys2, htm.Default(), 1024, 1)
	for _, r := range recs {
		tab2.RebuildBlock(r)
	}
	for k := uint64(0); k < 32; k++ {
		v, ok := tab2.Get(k)
		if k%4 == 0 {
			if ok {
				t.Fatalf("removed key %d resurrected with value %d", k, v)
			}
		} else if !ok || v != k+1000 {
			t.Fatalf("synced key %d lost or corrupt: %d,%v", k, v, ok)
		}
	}
	// Key 99's epoch closure crashed: it either made the boundary whole or
	// was discarded whole.
	if v, ok := tab2.Get(99); ok && v != 9999 {
		t.Fatalf("torn value for the mid-crash key: %d", v)
	}
}

func TestConcurrentInsertsDistinctKeys(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 22})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tm := htm.Default()
	tab := New(sys, tm, 1<<14, 1)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := sys.Register()
			defer sys.Release(w)
			for i := 0; i < perG; i++ {
				k := uint64(id*perG + i)
				tab.Insert(w, k, k^0xABCD)
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", tab.Len(), goroutines*perG)
	}
	for k := uint64(0); k < goroutines*perG; k++ {
		if v, ok := tab.Get(k); !ok || v != k^0xABCD {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestConcurrentMixedWorkloadMatchesModelAfterRecovery(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 22})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tm := htm.Default()
	tab := New(sys, tm, 1<<12, 1)
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := sys.Register()
			defer sys.Release(w)
			rng := rand.New(rand.NewPCG(uint64(id), 42))
			for i := 0; i < 1000; i++ {
				k := rng.Uint64N(256)
				switch rng.Uint64N(3) {
				case 0:
					tab.Remove(w, k)
				default:
					tab.Insert(w, k, k<<8|uint64(id))
				}
			}
		}(g)
	}
	// Advance epochs concurrently to exercise cross-epoch paths.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				sys.AdvanceOnce()
			}
		}
	}()
	wg.Wait()
	close(done)
	sys.Sync()

	// Snapshot the live state, then crash and compare.
	want := make(map[uint64]uint64)
	tab.Keys(func(k, v uint64) { want[k] = v })

	sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 0.5, Seed: 99})
	var recs []epoch.BlockRecord
	sys2 := epoch.Recover(h, epoch.Config{Manual: true}, func(r epoch.BlockRecord) { recs = append(recs, r) })
	tab2 := New(sys2, htm.Default(), 1<<12, 1)
	for _, r := range recs {
		tab2.RebuildBlock(r)
	}
	if tab2.Len() != len(want) {
		t.Fatalf("recovered %d keys, want %d", tab2.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := tab2.Get(k); !ok || got != v {
			t.Fatalf("recovered Get(%d) = %d,%v; want %d", k, got, ok, v)
		}
	}
}

// The OldSeeNew path: an operation that began in an old epoch must restart
// rather than overwrite a block modified in a newer epoch. We provoke it
// by beginning an op, advancing epochs, updating the key (newer epoch),
// then completing the stale op via the public API on another worker whose
// BeginOp predates the advance. Since the public API hides the race, we
// drive the table with two interleaved workers.
func TestOldSeeNewRestartProducesCurrentEpochUpdate(t *testing.T) {
	f := newFixture(t, 1024)
	w2 := f.sys.Register()
	f.tab.Insert(f.w, 7, 1)
	f.sys.AdvanceOnce()
	f.tab.Insert(w2, 7, 2) // newer epoch: out-of-place replace
	// w inserts again; its fresh BeginOp sees the current epoch, so this
	// is the in-place path; value must win.
	f.tab.Insert(f.w, 7, 3)
	v, _ := f.tab.Get(7)
	if v != 3 {
		t.Fatalf("value = %d, want 3", v)
	}
	if f.tab.Len() != 1 {
		t.Fatalf("Len = %d", f.tab.Len())
	}
}

func TestMemTypeInjectionRecovers(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 20})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tm := htm.New(htm.Config{MemTypeRate: 0.5, PreWalkResidualRate: 0})
	tab := New(sys, tm, 1024, 1)
	w := sys.Register()
	for k := uint64(0); k < 200; k++ {
		tab.Insert(w, k, k)
	}
	for k := uint64(0); k < 200; k++ {
		if v, ok := tab.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = %d,%v under memtype injection", k, v, ok)
		}
	}
	if tm.Stats().MemType == 0 {
		t.Fatal("expected some memtype aborts")
	}
}

func TestSpuriousInjectionRecovers(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 20})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tm := htm.New(htm.Config{SpuriousRate: 0.3})
	tab := New(sys, tm, 1024, 1)
	w := sys.Register()
	for k := uint64(0); k < 200; k++ {
		tab.Insert(w, k, k)
	}
	if tab.Len() != 200 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

// With every attempt killed, the first few operations spend their whole
// retry budget and trip the TM's; from then on an operation is one probe
// attempt and one session, and still does its job.
func TestDeadFastPathCostsOneProbePerOp(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 20})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tm := htm.New(htm.Config{SpuriousRate: 1})
	tab := New(sys, tm, 4096, 1)
	w := sys.Register()
	tab.Insert(w, 0, 0)
	budget := tm.Stats().Attempts()  // the first operation spends a whole budget
	for k := uint64(1); k < 8; k++ { // warm-up: 4 budgets of futile attempts trip it
		tab.Insert(w, k, k)
	}
	if s := tm.Stats(); budget < 2 || s.Attempts() < 4*budget {
		t.Fatalf("warm-up spent %d attempts (%d in the first operation), want the first operations to spend full budgets", s.Attempts(), budget)
	}
	before := tm.Stats()
	const n = 300
	for k := uint64(100); k < 100+n; k++ {
		tab.Insert(w, k, k+1)
		if v, ok := tab.GetW(w, k); !ok || v != k+1 {
			t.Fatalf("Get(%d) = %d,%v after insert", k, v, ok)
		}
		if k%3 == 0 && !tab.Remove(w, k) {
			t.Fatalf("Remove(%d) = false", k)
		}
	}
	ops := int64(n + n + n/3)
	s := tm.Stats().Sub(before)
	if s.FallbackAcquires != ops {
		t.Errorf("%d sessions for %d operations", s.FallbackAcquires, ops)
	}
	if s.Attempts() > 2*ops {
		t.Errorf("%d attempts for %d operations, want <= 2 per op", s.Attempts(), ops)
	}
}

// Randomized multi-epoch crash test: single worker, random ops and epoch
// advances, crash at a random point with random eviction; the recovered
// table must equal the model at the persisted epoch boundary.
func TestRandomizedCrashConsistency(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x5EED))
		h := nvm.New(nvm.Config{Words: 1 << 20})
		sys := epoch.New(h, epoch.Config{Manual: true})
		tm := htm.Default()
		tab := New(sys, tm, 1024, 1)
		w := sys.Register()

		model := make(map[uint64]uint64)
		snaps := map[uint64]map[uint64]uint64{
			sys.GlobalEpoch() - 2: {},
			sys.GlobalEpoch() - 1: {},
		}
		clone := func() map[uint64]uint64 {
			m := make(map[uint64]uint64, len(model))
			for k, v := range model {
				m[k] = v
			}
			return m
		}
		for i := 0; i < 300; i++ {
			switch rng.Uint64N(8) {
			case 0:
				snaps[sys.GlobalEpoch()] = clone()
				sys.AdvanceOnce()
			case 1, 2:
				k := rng.Uint64N(128)
				tab.Remove(w, k)
				delete(model, k)
			default:
				k, v := rng.Uint64N(128), rng.Uint64()
				tab.Insert(w, k, v)
				model[k] = v
			}
		}
		snaps[sys.GlobalEpoch()] = clone()

		sys.SimulateCrash(nvm.CrashOptions{
			EvictFraction: float64(rng.Uint64N(101)) / 100,
			Seed:          rng.Uint64() | 1,
		})
		p := sys.PersistedEpoch()
		want := snaps[p]
		if want == nil {
			t.Fatalf("trial %d: missing snapshot for epoch %d", trial, p)
		}
		var recs []epoch.BlockRecord
		sys2 := epoch.Recover(h, epoch.Config{Manual: true}, func(r epoch.BlockRecord) { recs = append(recs, r) })
		tab2 := New(sys2, htm.Default(), 1024, 1)
		for _, r := range recs {
			tab2.RebuildBlock(r)
		}
		if tab2.Len() != len(want) {
			t.Fatalf("trial %d: recovered %d keys, want %d (epoch %d)", trial, tab2.Len(), len(want), p)
		}
		for k, v := range want {
			if got, ok := tab2.Get(k); !ok || got != v {
				t.Fatalf("trial %d: Get(%d) = %d,%v; want %d", trial, k, got, ok, v)
			}
		}
	}
}

// TestWorkerIDAboveOldBound drives a worker whose ID is 512 on a system
// that allows 600: per-worker state is sized from the epoch system's
// worker bound, not from a constant.
func TestWorkerIDAboveOldBound(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 20})
	sys := epoch.New(h, epoch.Config{Manual: true, MaxWorkers: 600})
	tab := New(sys, htm.Default(), 1024, 1)
	var w *epoch.Worker
	for range 513 {
		w = sys.Register()
	}
	if w.ID() != 512 {
		t.Fatalf("513th worker has ID %d", w.ID())
	}
	tab.Insert(w, 5, 50)
	if v, ok := tab.GetW(w, 5); !ok || v != 50 {
		t.Fatalf("GetW(5) = %d,%v", v, ok)
	}
	if !tab.Remove(w, 5) {
		t.Fatal("Remove(5) = false")
	}
}

// collidingKeys returns n keys that share both the bucket and the
// fingerprint in t, found by brute force over hash64: a probe can tell
// them apart only by reading their keys.
func collidingKeys(t *Table, n int) []uint64 {
	classes := map[uint64][]uint64{}
	for k := uint64(1); ; k++ {
		start, fp := t.probe(k)
		c := start<<slotBits | uint64(fp)
		classes[c] = append(classes[c], k)
		if len(classes[c]) == n {
			return classes[c]
		}
	}
}

// TestFingerprintCollisions runs every operation on keys whose slots
// carry the same fingerprint in the same bucket, then crashes, recovers
// and rebuilds. A probe that trusted a fingerprint match without comparing
// keys would return, replace or remove the wrong key, or report a false
// duplicate at rebuild. It runs at a wide fingerprint and at the narrowest
// one in the repo: 7 bits, on the 2^25-word heap of the largest recovery
// experiment.
func TestFingerprintCollisions(t *testing.T) {
	for _, tc := range []struct{ words, fpBits int }{{1 << 20, 12}, {1 << 25, 7}} {
		t.Run(fmt.Sprintf("fp=%dbits", tc.fpBits), func(t *testing.T) {
			f := newFixtureOn(t, tc.words, 64)
			if n := bits.OnesCount32(^f.tab.addrMask); n != tc.fpBits {
				t.Fatalf("a %d-word heap leaves a %d-bit fingerprint, want %d", tc.words, n, tc.fpBits)
			}
			testFingerprintCollisions(t, f)
		})
	}
}

func testFingerprintCollisions(t *testing.T, f *fixture) {
	ks := collidingKeys(f.tab, 5)
	live, absent := ks[:4], ks[4]
	want := map[uint64]uint64{}
	check := func(stage string) {
		t.Helper()
		for _, k := range live {
			v, ok := f.tab.Get(k)
			if w, in := want[k]; ok != in || v != w {
				t.Fatalf("%s: Get(%d) = %d,%v, want %d,%v", stage, k, v, ok, w, in)
			}
		}
		if v, ok := f.tab.Get(absent); ok {
			t.Fatalf("%s: Get(%d) of an absent colliding key = %d", stage, absent, v)
		}
		if f.tab.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", stage, f.tab.Len(), len(want))
		}
	}
	for i, k := range live {
		if f.tab.Insert(f.w, k, uint64(100+i)) {
			t.Fatalf("fresh insert of %d reported a replacement", k)
		}
		want[k] = uint64(100 + i)
	}
	check("inserts")
	if !f.tab.Insert(f.w, live[1], 201) { // same epoch: in place
		t.Fatal("same-epoch update not reported as replacement")
	}
	want[live[1]] = 201
	check("in-place update")
	f.sys.AdvanceOnce()
	if !f.tab.Insert(f.w, live[2], 302) { // older epoch: out of place
		t.Fatal("out-of-place update not reported as replacement")
	}
	want[live[2]] = 302
	check("out-of-place update")
	if f.tab.Remove(f.w, absent) {
		t.Fatal("Remove of an absent colliding key reported success")
	}
	if !f.tab.Remove(f.w, live[0]) {
		t.Fatal("Remove of a colliding key failed")
	}
	delete(want, live[0])
	check("remove")
	if f.tab.Insert(f.w, live[0], 400) {
		t.Fatal("reinsert reported a replacement")
	}
	want[live[0]] = 400
	check("reinsert")
	f.sys.Sync()
	f.tab.Insert(f.w, live[3], 999) // unpersisted epoch: rolls back
	f.recoverTable(t, nvm.CrashOptions{EvictFraction: 0.5, Seed: 7}, 64)
	check("recovery")

	// The rebuild still refuses a real duplicate.
	var dup epoch.Block
	for i := range f.tab.nSlots() {
		if s := f.tab.peek(i); s > tomb && f.tab.blockAt(s).Key() == live[1] {
			dup = f.tab.blockAt(s)
		}
	}
	if dup.IsNil() {
		t.Fatalf("key %d not found in the rebuilt slots", live[1])
	}
	if !panics(func() { f.tab.RebuildBlock(epoch.BlockRecord{Addr: dup.Addr()}) }) {
		t.Fatal("RebuildBlock accepted a duplicate of a recovered key")
	}
}

// TestBlocksAtTheTopOfTheHeap fills most of a 2^16-word heap with other
// blocks, so that the table's blocks sit in its last slabs and their
// addresses set a slot's highest address bit, the one next to the
// fingerprint. Every operation, a crash that evicts half the dirty lines,
// and the rebuild must round-trip them.
func TestBlocksAtTheTopOfTheHeap(t *testing.T) {
	const words, capacity, universe, fillerTag = 1 << 16, 256, 200, 0x77
	f := newFixtureOn(t, words, capacity)
	for f.sys.Allocator().Alloc(palloc.NumClasses()-1, fillerTag) < words*3/4 {
	}
	top := nvm.Addr(f.tab.addrMask>>1 + 1) // the highest address bit
	model := map[uint64]uint64{}
	for k := uint64(0); k < universe; k++ {
		f.tab.Insert(f.w, k, k+1000)
		model[k] = k + 1000
	}
	for i := range f.tab.nSlots() {
		if s := f.tab.peek(i); s > tomb && f.tab.blockAt(s).Addr() < top {
			t.Fatalf("slot %d holds block %#x, below the top half of the heap at %#x", i, f.tab.blockAt(s).Addr(), top)
		}
	}
	for k := uint64(0); k < universe; k += 3 {
		f.tab.Remove(f.w, k)
		delete(model, k)
	}
	f.tab.Insert(f.w, 1, 1) // same epoch: in place
	model[1] = 1
	f.sys.AdvanceOnce()
	f.tab.Insert(f.w, 2, 2) // older epoch: out of place
	model[2] = 2
	checkTable(t, f.tab, model, universe, "before the crash")
	f.sys.Sync()
	f.tab.Insert(f.w, 0, 7) // unpersisted epoch: rolls back
	f.tab.Remove(f.w, 4)
	f.recoverTable(t, nvm.CrashOptions{EvictFraction: 0.5, Seed: 11}, capacity)
	checkTable(t, f.tab, model, universe, "after recovery")
	for k := uint64(0); k < universe; k += 2 {
		if _, in := model[k]; in {
			f.tab.Remove(f.w, k)
			delete(model, k)
		} else {
			f.tab.Insert(f.w, k, k+3000)
			model[k] = k + 3000
		}
	}
	checkTable(t, f.tab, model, universe, "operations after recovery")
}

// TestAddressesMustFitASlot: a heap of up to 2^32 words leaves its
// addresses room in a 32-bit slot, with no bit to spare for the
// fingerprint at 2^32; a larger one is refused, naming its size.
func TestAddressesMustFitASlot(t *testing.T) {
	for _, tc := range []struct {
		words uint64
		mask  uint32
	}{{1 << 16, 1<<16 - 1}, {1<<16 + 1, 1<<17 - 1}, {6_300_000, 1<<23 - 1}, {1 << 25, 1<<25 - 1}, {1 << 32, 1<<32 - 1}} {
		if got := addrMask(tc.words); got != tc.mask {
			t.Errorf("addrMask(%d) = %#x, want %#x", tc.words, got, tc.mask)
		}
	}
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		addrMask(1<<32 + 1)
		return ""
	}()
	if !strings.Contains(msg, "4294967297 words") {
		t.Fatalf("addrMask of a heap past 2^32 words: panic %q, want one naming its size", msg)
	}
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}
