package veb

import (
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

func newTransient(t *testing.T, bits uint8) *Tree {
	t.Helper()
	return New(Config{UniverseBits: bits, TM: htm.Default()})
}

type pfix struct {
	heap *nvm.Heap
	sys  *epoch.System
	tree *Tree
	w    *epoch.Worker
}

func newPersistent(t *testing.T, bits uint8, words int) *pfix {
	t.Helper()
	h := nvm.New(nvm.Config{Words: words})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tree := New(Config{UniverseBits: bits, TM: htm.Default(), DataSys: sys})
	return &pfix{heap: h, sys: sys, tree: tree, w: sys.Register()}
}

func (p *pfix) recover(t *testing.T, opts nvm.CrashOptions, bits uint8) *Tree {
	t.Helper()
	p.sys.SimulateCrash(opts)
	var recs []epoch.BlockRecord
	sys2 := epoch.Recover(p.heap, epoch.Config{Manual: true}, func(r epoch.BlockRecord) { recs = append(recs, r) })
	tree2 := New(Config{UniverseBits: bits, TM: htm.Default(), DataSys: sys2})
	for _, r := range recs {
		tree2.RebuildBlock(r)
	}
	p.sys, p.tree, p.w = sys2, tree2, sys2.Register()
	return tree2
}

func TestTransientBasics(t *testing.T) {
	tr := newTransient(t, 16)
	if tr.Contains(5) {
		t.Fatal("empty tree contains 5")
	}
	if tr.Insert(nil, 5, 50) {
		t.Fatal("fresh insert reported replacement")
	}
	if v, ok := tr.Get(5); !ok || v != 50 {
		t.Fatalf("Get(5) = %d,%v", v, ok)
	}
	if !tr.Insert(nil, 5, 51) {
		t.Fatal("update not reported as replacement")
	}
	if v, _ := tr.Get(5); v != 51 {
		t.Fatalf("Get(5) = %d", v)
	}
	if !tr.Remove(nil, 5) || tr.Contains(5) || tr.Remove(nil, 5) {
		t.Fatal("remove semantics wrong")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestSuccessorChain(t *testing.T) {
	tr := newTransient(t, 16)
	keys := []uint64{100, 5, 9000, 42, 7, 65535, 0}
	for _, k := range keys {
		tr.Insert(nil, k, k+1)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	// Walk via Successor from before the first key.
	got := []uint64{}
	if tr.Contains(0) {
		got = append(got, 0)
	}
	k := uint64(0)
	for {
		nk, nv, ok := tr.Successor(k)
		if !ok {
			break
		}
		if nv != nk+1 {
			t.Fatalf("Successor value of %d = %d", nk, nv)
		}
		got = append(got, nk)
		k = nk
	}
	if len(got) != len(keys) {
		t.Fatalf("successor chain %v, want %v", got, keys)
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("successor chain %v, want %v", got, keys)
		}
	}
}

// The definitive CLRS-correctness test: random ops vs a model map with a
// sorted-successor oracle, on a small universe to hit edge cases hard.
func TestModelEquivalence(t *testing.T) {
	for _, bits := range []uint8{3, 6, 7, 10, 16} {
		t.Run(string(rune('a'+bits)), func(t *testing.T) {
			tr := newTransient(t, bits)
			model := make(map[uint64]uint64)
			u := uint64(1) << bits
			rng := rand.New(rand.NewPCG(uint64(bits), 77))
			for i := 0; i < 4000; i++ {
				k := rng.Uint64N(u)
				switch rng.Uint64N(6) {
				case 0, 1:
					got := tr.Remove(nil, k)
					_, want := model[k]
					if got != want {
						t.Fatalf("step %d: Remove(%d)=%v want %v", i, k, got, want)
					}
					delete(model, k)
				case 2:
					gv, gok := tr.Get(k)
					wv, wok := model[k]
					if gok != wok || gv != wv {
						t.Fatalf("step %d: Get(%d)=%d,%v want %d,%v", i, k, gv, gok, wv, wok)
					}
				case 3:
					gk, _, gok := tr.Successor(k)
					wk, wok := uint64(0), false
					for mk := range model {
						if mk > k && (!wok || mk < wk) {
							wk, wok = mk, true
						}
					}
					if gok != wok || (gok && gk != wk) {
						t.Fatalf("step %d: Successor(%d)=%d,%v want %d,%v", i, k, gk, gok, wk, wok)
					}
				default:
					v := rng.Uint64()
					got := tr.Insert(nil, k, v)
					_, want := model[k]
					if got != want {
						t.Fatalf("step %d: Insert(%d) replaced=%v want %v", i, k, got, want)
					}
					model[k] = v
				}
			}
			if tr.Len() != len(model) {
				t.Fatalf("Len=%d model=%d", tr.Len(), len(model))
			}
		})
	}
}

func TestQuickInsertDeleteAll(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := newTransient(t, 16)
		seen := make(map[uint64]bool)
		for _, r := range raw {
			k := uint64(r)
			tr.Insert(nil, k, k)
			seen[k] = true
		}
		if tr.Len() != len(seen) {
			return false
		}
		for k := range seen {
			if !tr.Remove(nil, k) {
				return false
			}
		}
		return tr.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTransient(t *testing.T) {
	tr := newTransient(t, 18)
	const goroutines = 6
	const perG = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			base := uint64(id * perG)
			for i := uint64(0); i < perG; i++ {
				tr.Insert(nil, base+i, base+i+7)
			}
			for i := uint64(0); i < perG; i += 2 {
				tr.Remove(nil, base+i)
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != goroutines*perG/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), goroutines*perG/2)
	}
	for g := 0; g < goroutines; g++ {
		base := uint64(g * perG)
		for i := uint64(1); i < perG; i += 2 {
			if v, ok := tr.Get(base + i); !ok || v != base+i+7 {
				t.Fatalf("Get(%d) = %d,%v", base+i, v, ok)
			}
		}
	}
}

func TestConcurrentContended(t *testing.T) {
	tr := newTransient(t, 10)
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id), 3))
			for i := 0; i < 1500; i++ {
				k := rng.Uint64N(64)
				switch rng.Uint64N(3) {
				case 0:
					tr.Remove(nil, k)
				case 1:
					tr.Get(k)
				default:
					tr.Insert(nil, k, k<<8|uint64(id))
				}
			}
		}(g)
	}
	wg.Wait()
	// Structural sanity: successor walk is ordered, count matches.
	n := 0
	k, first := uint64(0), tr.Contains(0)
	if first {
		n++
	}
	for {
		nk, _, ok := tr.Successor(k)
		if !ok {
			break
		}
		if nk <= k && !(k == 0 && !first) {
			t.Fatalf("successor order violation: %d after %d", nk, k)
		}
		n++
		k = nk
	}
	if n != tr.Len() {
		t.Fatalf("walk found %d keys, Len()=%d", n, tr.Len())
	}
}

func TestPersistentBasics(t *testing.T) {
	p := newPersistent(t, 16, 1<<20)
	p.tree.Insert(p.w, 5, 50)
	if v, ok := p.tree.Get(5); !ok || v != 50 {
		t.Fatalf("Get(5) = %d,%v", v, ok)
	}
	p.tree.Insert(p.w, 5, 51) // same epoch: in-place
	if v, _ := p.tree.Get(5); v != 51 {
		t.Fatalf("Get = %d", v)
	}
	p.sys.AdvanceOnce()
	p.tree.Insert(p.w, 5, 52) // cross epoch: out-of-place
	if v, _ := p.tree.Get(5); v != 52 {
		t.Fatalf("Get = %d", v)
	}
	if !p.tree.Remove(p.w, 5) {
		t.Fatal("Remove failed")
	}
}

func TestPersistentCrashRecovery(t *testing.T) {
	p := newPersistent(t, 16, 1<<20)
	for k := uint64(0); k < 300; k++ {
		p.tree.Insert(p.w, k, k+9)
	}
	p.tree.Remove(p.w, 17)
	p.sys.Sync()
	p.tree.Insert(p.w, 1000, 1) // unpersisted
	tree2 := p.recover(t, nvm.CrashOptions{EvictFraction: 0.6, Seed: 5}, 16)
	if tree2.Len() != 299 {
		t.Fatalf("recovered Len = %d, want 299", tree2.Len())
	}
	for k := uint64(0); k < 300; k++ {
		v, ok := tree2.Get(k)
		if k == 17 {
			if ok {
				t.Fatal("removed key survived")
			}
			continue
		}
		if !ok || v != k+9 {
			t.Fatalf("recovered Get(%d) = %d,%v", k, v, ok)
		}
	}
	if tree2.Contains(1000) {
		t.Fatal("unpersisted key survived")
	}
	// Successor queries still work on the rebuilt index.
	if nk, _, ok := tree2.Successor(16); !ok || nk != 18 {
		t.Fatalf("Successor(16) = %d,%v", nk, ok)
	}
	// And the tree is writable.
	tree2.Insert(p.w, 17, 1717)
	if v, _ := tree2.Get(17); v != 1717 {
		t.Fatal("recovered tree not writable")
	}
}

func TestPersistentUnsyncedRemovalRollsBack(t *testing.T) {
	p := newPersistent(t, 16, 1<<20)
	p.tree.Insert(p.w, 7, 70)
	p.sys.Sync()
	p.tree.Remove(p.w, 7) // unpersisted removal
	tree2 := p.recover(t, nvm.CrashOptions{EvictFraction: 1, Seed: 2}, 16)
	if v, ok := tree2.Get(7); !ok || v != 70 {
		t.Fatalf("unpersisted removal should roll back: Get(7)=%d,%v", v, ok)
	}
}

func TestPersistentConcurrent(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 22})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tree := New(Config{UniverseBits: 18, TM: htm.Default(), DataSys: sys})
	const goroutines = 4
	const perG = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := sys.Register()
			defer sys.Release(w)
			base := uint64(id * perG)
			for i := uint64(0); i < perG; i++ {
				tree.Insert(w, base+i, base+i)
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
	if tree.Len() != goroutines*perG {
		t.Fatalf("Len = %d", tree.Len())
	}
	sys.Sync()
	sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 0.5, Seed: 11})
	var recs []epoch.BlockRecord
	sys2 := epoch.Recover(h, epoch.Config{Manual: true}, func(r epoch.BlockRecord) { recs = append(recs, r) })
	tree2 := New(Config{UniverseBits: 18, TM: htm.Default(), DataSys: sys2})
	for _, r := range recs {
		tree2.RebuildBlock(r)
	}
	if tree2.Len() != goroutines*perG {
		t.Fatalf("recovered Len = %d", tree2.Len())
	}
}

func TestMemTypeMitigation(t *testing.T) {
	tm := htm.New(htm.Config{MemTypeRate: 0.6, PreWalkResidualRate: 0.0})
	tr := New(Config{UniverseBits: 12, TM: tm})
	for k := uint64(0); k < 200; k++ {
		tr.Insert(nil, k, k)
	}
	for k := uint64(0); k < 200; k++ {
		if v, ok := tr.Get(k); !ok || v != k {
			t.Fatalf("Get(%d)=%d,%v under memtype injection", k, v, ok)
		}
	}
	s := tm.Stats()
	if s.MemType == 0 {
		t.Fatal("expected memtype aborts")
	}
}

func TestDRAMAccounting(t *testing.T) {
	tr := newTransient(t, 16)
	before := tr.DRAMBytes()
	for k := uint64(0); k < 1000; k++ {
		tr.Insert(nil, k, k)
	}
	if tr.DRAMBytes() <= before {
		t.Fatal("DRAM accounting did not grow")
	}
}

func TestKeyOutOfUniversePanics(t *testing.T) {
	tr := newTransient(t, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-universe key")
		}
	}()
	tr.Insert(nil, 256, 1)
}

func TestUniverseBoundaries(t *testing.T) {
	tr := newTransient(t, 8)
	tr.Insert(nil, 0, 100)
	tr.Insert(nil, 255, 200)
	if v, _ := tr.Get(0); v != 100 {
		t.Fatal("min key")
	}
	if v, _ := tr.Get(255); v != 200 {
		t.Fatal("max key")
	}
	if nk, _, ok := tr.Successor(0); !ok || nk != 255 {
		t.Fatalf("Successor(0) = %d,%v", nk, ok)
	}
	if _, _, ok := tr.Successor(255); ok {
		t.Fatal("Successor(255) should be empty")
	}
	tr.Remove(nil, 0)
	tr.Remove(nil, 255)
	if tr.Len() != 0 {
		t.Fatal("not empty")
	}
}

// TestWorkerIDAboveOldBound drives a worker whose ID is 512 on a system
// that allows 600: per-worker state is sized from the epoch system's
// worker bound, not from a constant.
func TestWorkerIDAboveOldBound(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 20})
	sys := epoch.New(h, epoch.Config{Manual: true, MaxWorkers: 600})
	tree := New(Config{UniverseBits: 16, TM: htm.Default(), DataSys: sys})
	var w *epoch.Worker
	for range 513 {
		w = sys.Register()
	}
	if w.ID() != 512 {
		t.Fatalf("513th worker has ID %d", w.ID())
	}
	tree.Insert(w, 5, 50)
	if v, ok := tree.Get(5); !ok || v != 50 {
		t.Fatalf("Get(5) = %d,%v", v, ok)
	}
	if !tree.Remove(w, 5) {
		t.Fatal("Remove(5) = false")
	}
}
