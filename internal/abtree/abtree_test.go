package abtree

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"bdhtm/internal/nvm"
)

func variants(t *testing.T, f func(t *testing.T, elim bool)) {
	t.Run("OCC", func(t *testing.T) { f(t, false) })
	t.Run("Elim", func(t *testing.T) { f(t, true) })
}

func newTree(t *testing.T, elim bool) (*nvm.Heap, *Tree) {
	t.Helper()
	h := nvm.New(nvm.Config{Words: 1 << 21})
	return h, New(h, elim)
}

func TestBasics(t *testing.T) {
	variants(t, func(t *testing.T, elim bool) {
		_, tr := newTree(t, elim)
		if tr.Insert(5, 50) {
			t.Fatal("fresh insert reported replacement")
		}
		if v, ok := tr.Get(5); !ok || v != 50 {
			t.Fatalf("Get(5)=%d,%v", v, ok)
		}
		if !tr.Insert(5, 51) {
			t.Fatal("update not reported")
		}
		if !tr.Remove(5) || tr.Remove(5) {
			t.Fatal("remove semantics")
		}
		tr.Insert(0, 3)
		if v, ok := tr.Get(0); !ok || v != 3 {
			t.Fatalf("Get(0)=%d,%v", v, ok)
		}
	})
}

func TestSplitsAndModel(t *testing.T) {
	variants(t, func(t *testing.T, elim bool) {
		_, tr := newTree(t, elim)
		model := make(map[uint64]uint64)
		rng := rand.New(rand.NewPCG(8, 8))
		for i := 0; i < 6000; i++ {
			k := rng.Uint64N(1024)
			switch rng.Uint64N(5) {
			case 0:
				got := tr.Remove(k)
				_, want := model[k]
				if got != want {
					t.Fatalf("step %d Remove(%d)=%v want %v", i, k, got, want)
				}
				delete(model, k)
			case 1:
				gv, gok := tr.Get(k)
				wv, wok := model[k]
				if gok != wok || gv != wv {
					t.Fatalf("step %d Get(%d)=%d,%v want %d,%v", i, k, gv, gok, wv, wok)
				}
			default:
				v := rng.Uint64()
				got := tr.Insert(k, v)
				_, want := model[k]
				if got != want {
					t.Fatalf("step %d Insert(%d)=%v want %v", i, k, got, want)
				}
				model[k] = v
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("Len=%d model=%d", tr.Len(), len(model))
		}
	})
}

func TestConcurrentDisjoint(t *testing.T) {
	variants(t, func(t *testing.T, elim bool) {
		h := nvm.New(nvm.Config{Words: 1 << 22})
		tr := New(h, elim)
		const goroutines = 6
		const perG = 400
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				base := uint64(id * perG)
				for i := uint64(0); i < perG; i++ {
					tr.Insert(base+i, base+i+9)
				}
				for i := uint64(0); i < perG; i += 2 {
					tr.Remove(base + i)
				}
			}(g)
		}
		wg.Wait()
		if tr.Len() != goroutines*perG/2 {
			t.Fatalf("Len = %d", tr.Len())
		}
		for g := 0; g < goroutines; g++ {
			base := uint64(g * perG)
			for i := uint64(1); i < perG; i += 2 {
				if v, ok := tr.Get(base + i); !ok || v != base+i+9 {
					t.Fatalf("Get(%d)=%d,%v", base+i, v, ok)
				}
			}
		}
	})
}

// Hot-key hammering: under the Elim variant, total counts must stay exact
// even when operations are applied by other threads' drains.
func TestConcurrentHotKeys(t *testing.T) {
	variants(t, func(t *testing.T, elim bool) {
		h := nvm.New(nvm.Config{Words: 1 << 21})
		tr := New(h, elim)
		const goroutines = 4
		var wg sync.WaitGroup
		var inserts, removes [goroutines]int64
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(id), 6))
				for i := 0; i < 1500; i++ {
					k := rng.Uint64N(8) // extremely hot
					if rng.Uint64N(2) == 0 {
						if !tr.Insert(k, k) {
							inserts[id]++
						}
					} else {
						if tr.Remove(k) {
							removes[id]++
						}
					}
				}
			}(g)
		}
		wg.Wait()
		var net int64
		for g := 0; g < goroutines; g++ {
			net += inserts[g] - removes[g]
		}
		if int64(tr.Len()) != net {
			t.Fatalf("Len=%d, net inserts=%d", tr.Len(), net)
		}
		// And the structure agrees with itself.
		present := 0
		for k := uint64(0); k < 8; k++ {
			if _, ok := tr.Get(k); ok {
				present++
			}
		}
		if present != tr.Len() {
			t.Fatalf("probe found %d keys, Len=%d", present, tr.Len())
		}
	})
}

func TestEliminationHappens(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 21})
	tr := New(h, true)
	// Hold the leaf lock while the writers start, so contention does not
	// depend on the scheduler preempting a lock holder: every writer's
	// first operation (key 0) finds the leaf locked and publishes, and
	// the test drains the batch as the lock holder would.
	leaf := tr.findLeaf(0)
	if !tr.lockLeaf(leaf) {
		t.Fatal("fresh leaf already locked")
	}
	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := uint64(i % 4)
				if id%2 == 0 {
					tr.Insert(k, uint64(i))
				} else {
					tr.Remove(k)
				}
			}
		}(g)
	}
	pa := &tr.pubs[tr.leafIdx(leaf)]
	deadline := time.Now().Add(10 * time.Second)
	for pending := false; !pending; {
		for i := range pa.slots {
			pending = pending || pa.slots[i].state.Load() == pubPending
		}
		if time.Now().After(deadline) {
			t.Fatal("no writer published while the leaf was locked")
		}
		runtime.Gosched()
	}
	tr.drainPubs(leaf)
	tr.unlockLeaf(leaf)
	wg.Wait()
	if _, combined := tr.EliminationStats(); combined == 0 {
		t.Fatal("no operation was combined by the lock holder")
	}
	present := 0
	for k := uint64(0); k < 4; k++ {
		if _, ok := tr.Get(k); ok {
			present++
		}
	}
	if present != tr.Len() {
		t.Fatalf("probe found %d keys, Len=%d", present, tr.Len())
	}
}

func TestCrashRecovery(t *testing.T) {
	variants(t, func(t *testing.T, elim bool) {
		h, tr := newTree(t, elim)
		for k := uint64(0); k < 1500; k++ {
			tr.Insert(k, k+2)
		}
		tr.Remove(7)
		h.Crash(nvm.CrashOptions{})
		tr2 := Recover(h, elim)
		if tr2.Len() != 1499 {
			t.Fatalf("recovered Len = %d", tr2.Len())
		}
		for k := uint64(0); k < 1500; k += 13 {
			v, ok := tr2.Get(k)
			if k == 7 {
				continue
			}
			if !ok || v != k+2 {
				t.Fatalf("recovered Get(%d)=%d,%v", k, v, ok)
			}
		}
		if _, ok := tr2.Get(7); ok {
			t.Fatal("removed key survived")
		}
		tr2.Insert(9999, 1)
		if _, ok := tr2.Get(9999); !ok {
			t.Fatal("recovered tree not writable")
		}
	})
}

func TestPersistsPerInsert(t *testing.T) {
	h, tr := newTree(t, false)
	before := h.Stats()
	tr.Insert(77, 1)
	d := h.Stats().Sub(before)
	if d.Flushes < 2 {
		t.Fatalf("insert flushed %d times; fully persistent tree must persist entry and bitmap", d.Flushes)
	}
}

func TestNVMResidentLookups(t *testing.T) {
	// The directory search must read NVM words (no DRAM index): loads on
	// the heap should grow with every Get.
	h, tr := newTree(t, false)
	tr.Insert(1, 2)
	before := h.Stats().Loads
	tr.Get(1)
	if h.Stats().Loads == before {
		t.Fatal("Get did not touch NVM; directory should be NVM resident")
	}
}
