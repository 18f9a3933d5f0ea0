package spash

import (
	"math/rand/v2"
	"sync"
	"testing"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

func newBD(t *testing.T, words int) (*nvm.Heap, *epoch.System, *Table, *epoch.Worker) {
	t.Helper()
	h := nvm.New(nvm.Config{Words: words})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tab := New(Config{Mode: ModeBD, Sys: sys, TM: htm.Default()})
	return h, sys, tab, sys.Register()
}

func newEADR(t *testing.T, words int) (*nvm.Heap, *Table) {
	t.Helper()
	h := nvm.New(nvm.Config{Words: words, Mode: nvm.ModeEADR})
	return h, New(Config{Mode: ModeEADR, Heap: h, TM: htm.Default()})
}

func TestBasicsBothModes(t *testing.T) {
	t.Run("BD", func(t *testing.T) {
		_, _, tab, w := newBD(t, 1<<20)
		testBasics(t, tab, w)
	})
	t.Run("eADR", func(t *testing.T) {
		_, tab := newEADR(t, 1<<20)
		testBasics(t, tab, nil)
	})
}

func testBasics(t *testing.T, tab *Table, w *epoch.Worker) {
	t.Helper()
	if replaced := tab.Insert(w, 5, 50); replaced {
		t.Fatal("fresh insert reported replacement")
	}
	if v, ok := tab.Get(5); !ok || v != 50 {
		t.Fatalf("Get(5) = %d,%v", v, ok)
	}
	if !tab.Insert(w, 5, 51) {
		t.Fatal("update not reported")
	}
	if v, _ := tab.Get(5); v != 51 {
		t.Fatalf("Get = %d", v)
	}
	if !tab.Remove(w, 5) || tab.Remove(w, 5) {
		t.Fatal("remove semantics")
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestSplitsAndDoubling(t *testing.T) {
	_, _, tab, w := newBD(t, 1<<22)
	const n = 5000
	for k := uint64(0); k < n; k++ {
		tab.Insert(w, k, k*3)
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d", tab.Len())
	}
	st := tab.Stats()
	if st.Splits == 0 || st.Doublings == 0 {
		t.Fatalf("expected structural growth: %+v", st)
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := tab.Get(k); !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d,%v after splits", k, v, ok)
		}
	}
}

func TestModelEquivalenceBD(t *testing.T) {
	_, sys, tab, w := newBD(t, 1<<22)
	model := make(map[uint64]uint64)
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 5000; i++ {
		k := rng.Uint64N(512)
		switch rng.Uint64N(5) {
		case 0:
			got := tab.Remove(w, k)
			_, want := model[k]
			if got != want {
				t.Fatalf("step %d Remove(%d)=%v want %v", i, k, got, want)
			}
			delete(model, k)
		case 1:
			gv, gok := tab.Get(k)
			wv, wok := model[k]
			if gok != wok || gv != wv {
				t.Fatalf("step %d Get(%d)=%d,%v want %d,%v", i, k, gv, gok, wv, wok)
			}
		default:
			v := rng.Uint64() >> 1
			got := tab.Insert(w, k, v)
			_, want := model[k]
			if got != want {
				t.Fatalf("step %d Insert(%d)=%v want %v", i, k, got, want)
			}
			model[k] = v
		}
		if i%500 == 0 {
			sys.AdvanceOnce()
		}
	}
	if tab.Len() != len(model) {
		t.Fatalf("Len=%d model=%d", tab.Len(), len(model))
	}
}

func TestConcurrentBD(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 22})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tab := New(Config{Mode: ModeBD, Sys: sys, TM: htm.Default()})
	const goroutines = 6
	const perG = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := sys.Register()
			defer sys.Release(w)
			base := uint64(id * perG)
			for i := uint64(0); i < perG; i++ {
				tab.Insert(w, base+i, base+i+7)
			}
			for i := uint64(0); i < perG; i += 2 {
				tab.Remove(w, base+i)
			}
		}(g)
	}
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
	if tab.Len() != goroutines*perG/2 {
		t.Fatalf("Len = %d want %d", tab.Len(), goroutines*perG/2)
	}
	for g := 0; g < goroutines; g++ {
		base := uint64(g * perG)
		for i := uint64(1); i < perG; i += 2 {
			if v, ok := tab.Get(base + i); !ok || v != base+i+7 {
				t.Fatalf("Get(%d)=%d,%v", base+i, v, ok)
			}
		}
	}
}

func TestBDCrashRecovery(t *testing.T) {
	h, sys, tab, w := newBD(t, 1<<22)
	for k := uint64(0); k < 1000; k++ {
		tab.Insert(w, k, k+5)
	}
	tab.Remove(w, 3)
	sys.Sync()
	tab.Insert(w, 5000, 1) // unpersisted
	sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 0.5, Seed: 9})
	var recs []epoch.BlockRecord
	sys2 := epoch.Recover(h, epoch.Config{Manual: true}, func(r epoch.BlockRecord) { recs = append(recs, r) })
	tab2 := New(Config{Mode: ModeBD, Sys: sys2, TM: htm.Default()})
	for _, r := range recs {
		tab2.RebuildBlock(r)
	}
	if tab2.Len() != 999 {
		t.Fatalf("recovered Len = %d, want 999", tab2.Len())
	}
	for k := uint64(0); k < 1000; k++ {
		v, ok := tab2.Get(k)
		if k == 3 {
			if ok {
				t.Fatal("removed key survived")
			}
			continue
		}
		if !ok || v != k+5 {
			t.Fatalf("recovered Get(%d)=%d,%v", k, v, ok)
		}
	}
	if _, ok := tab2.Get(5000); ok {
		t.Fatal("unpersisted key survived")
	}
}

func TestEADRCrashKeepsEverything(t *testing.T) {
	h, tab := newEADR(t, 1<<22)
	for k := uint64(0); k < 800; k++ {
		tab.Insert(nil, k, k^0xFF)
	}
	tab.Remove(nil, 10)
	// No sync of any kind: eADR makes committed stores durable.
	h.Crash(nvm.CrashOptions{})
	tab2 := RecoverEADR(h, Config{TM: htm.Default()})
	if tab2.Len() != 799 {
		t.Fatalf("recovered Len = %d, want 799", tab2.Len())
	}
	for k := uint64(0); k < 800; k++ {
		v, ok := tab2.Get(k)
		if k == 10 {
			if ok {
				t.Fatal("removed key survived")
			}
			continue
		}
		if !ok || v != k^0xFF {
			t.Fatalf("Get(%d)=%d,%v", k, v, ok)
		}
	}
}

func TestEADRColdFlushesLargeBlocksOnly(t *testing.T) {
	// Small records stay cached (the original coalesces them); blocks at
	// XPLine size or above are proactively written back when cold.
	_, small := newEADR(t, 1<<20)
	for k := uint64(0); k < 200; k++ {
		small.Insert(nil, k, k)
	}
	if small.Stats().ColdFlushes != 0 {
		t.Fatalf("small records flushed %d times; they should stay cached", small.Stats().ColdFlushes)
	}
	h := nvm.New(nvm.Config{Words: 1 << 22, Mode: nvm.ModeEADR})
	big := New(Config{Mode: ModeEADR, Heap: h, TM: htm.Default(), ValueWords: 40})
	for k := uint64(0); k < 200; k++ {
		big.Insert(nil, k, k)
	}
	if big.Stats().ColdFlushes == 0 {
		t.Fatal("large cold blocks should be proactively written back")
	}
}

func TestBDSmallValuesDeferToEpoch(t *testing.T) {
	_, _, tab, w := newBD(t, 1<<20)
	for k := uint64(0); k < 200; k++ {
		tab.Insert(w, k, k)
	}
	// Small records are never immediately flushed in BD mode.
	if tab.Stats().ColdFlushes != 0 {
		t.Fatalf("BD mode flushed %d small cold blocks; they should defer to the epoch system", tab.Stats().ColdFlushes)
	}
}

func TestBDLargeColdValuesFlushImmediately(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 22})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tab := New(Config{Mode: ModeBD, Sys: sys, TM: htm.Default(), ValueWords: 40})
	w := sys.Register()
	for k := uint64(0); k < 200; k++ {
		tab.Insert(w, k, k)
	}
	if tab.Stats().ColdFlushes == 0 {
		t.Fatal("large cold blocks should be written back immediately")
	}
}

func TestHotspotDetector(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 22})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tab := New(Config{Mode: ModeBD, Sys: sys, TM: htm.Default(), ValueWords: 40})
	w := sys.Register()
	// Hammer one key: after the threshold it must count as hot and stop
	// being flushed.
	for i := 0; i < 100; i++ {
		tab.Insert(w, 1, uint64(i))
	}
	st := tab.Stats()
	if st.HotSkips == 0 {
		t.Fatalf("hot key never detected: %+v", st)
	}
}

func TestEpochCrossingOutOfPlace(t *testing.T) {
	_, sys, tab, w := newBD(t, 1<<20)
	tab.Insert(w, 9, 1)
	sys.Sync()
	live := sys.Allocator().LiveBlocks()
	sys.AdvanceOnce()
	tab.Insert(w, 9, 2) // out-of-place
	if got := sys.Allocator().LiveBlocks(); got != live+1 {
		t.Fatalf("cross-epoch update: live %d -> %d, want +1 (old copy retained)", live, got)
	}
	if v, _ := tab.Get(9); v != 2 {
		t.Fatalf("Get = %d", v)
	}
}

func TestModeString(t *testing.T) {
	if ModeEADR.String() != "Spash" || ModeBD.String() != "BD-Spash" {
		t.Fatal("mode names")
	}
}

// TestWorkerIDAboveOldBound drives a worker whose ID is 512 on a system
// that allows 600: per-worker state is sized from the epoch system's
// worker bound, not from a constant.
func TestWorkerIDAboveOldBound(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 20})
	sys := epoch.New(h, epoch.Config{Manual: true, MaxWorkers: 600})
	tab := New(Config{Mode: ModeBD, Sys: sys, TM: htm.Default()})
	var w *epoch.Worker
	for range 513 {
		w = sys.Register()
	}
	if w.ID() != 512 {
		t.Fatalf("513th worker has ID %d", w.ID())
	}
	testBasics(t, tab, w)
}
