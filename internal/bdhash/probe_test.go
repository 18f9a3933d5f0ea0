package bdhash

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

// probePaths are the two modes an operation's body runs in: a transaction,
// and (every attempt killed) a slow-path session.
var probePaths = []struct {
	name string
	cfg  htm.Config
}{
	{"fast", htm.Config{}},
	{"session", htm.Config{SpuriousRate: 1}},
}

// checkTable compares tab with model: Get of every key below universe,
// Len, and the keys Keys reports (each once, no tombstone). It also checks
// the probe invariant: no empty slot lies between a key's window start and
// its slot.
func checkTable(t *testing.T, tab *Table, model map[uint64]uint64, universe uint64, stage string) {
	t.Helper()
	for k := uint64(0); k < universe; k++ {
		v, ok := tab.Get(k)
		if want, in := model[k]; ok != in || v != want {
			t.Fatalf("%s: Get(%d) = %d,%v, want %d,%v", stage, k, v, ok, want, in)
		}
	}
	if tab.Len() != len(model) {
		t.Fatalf("%s: Len = %d, want %d", stage, tab.Len(), len(model))
	}
	seen := map[uint64]bool{}
	tab.Keys(func(k, v uint64) {
		if want, in := model[k]; !in || v != want || seen[k] {
			t.Fatalf("%s: Keys reports %d=%d (model %d,%v, seen before %v)", stage, k, v, want, in, seen[k])
		}
		seen[k] = true
	})
	if len(seen) != len(model) {
		t.Fatalf("%s: Keys reports %d keys, want %d", stage, len(seen), len(model))
	}
	n := tab.nSlots()
	for s := range n {
		word := tab.peek(s)
		if word == 0 || word == tomb {
			continue
		}
		k := tab.blockAt(word).Key()
		start, _ := tab.probe(k)
		for i := start % n; i != s; i = (i + 1) % n {
			if tab.peek(i) == 0 {
				t.Fatalf("%s: key %d in slot %d lies past empty slot %d of its window (start %d)", stage, k, s, i, start)
			}
		}
	}
}

// countTombs is the number of tombstones in tab's slots.
func countTombs(tab *Table) (n int) {
	for i := range tab.nSlots() {
		if tab.peek(i) == tomb {
			n++
		}
	}
	return n
}

// TestProbeModel runs random inserts, removals and epoch closes on tables
// of 8, 16 and 32 slots, so that every probe window (32 slots) wraps the
// table and the windows of all buckets overlap, on both paths, and checks
// the table against a map after every operation. The key universe is the
// slot count, so the table fills, tombstones pile up between keys, and an
// insert that finds no empty slot must take a tombstone.
func TestProbeModel(t *testing.T) {
	ops := 20000
	if testing.Short() {
		ops = 500
	}
	for _, path := range probePaths {
		for _, capacity := range []int{4, 8, 16} {
			t.Run(fmt.Sprintf("%s/capacity=%d", path.name, capacity), func(t *testing.T) {
				h := nvm.New(nvm.Config{Words: 1 << 20})
				sys := epoch.New(h, epoch.Config{Manual: true})
				tab := New(sys, htm.New(path.cfg), capacity, 1)
				w := sys.Register()
				universe := tab.nSlots()
				rng := rand.New(rand.NewPCG(uint64(capacity), 0x7b0b))
				model := map[uint64]uint64{}
				tombs := 0
				for i := 0; i < ops; i++ {
					k := rng.Uint64N(universe)
					var stage string
					switch r := rng.IntN(20); {
					case r < 10:
						v := rng.Uint64()
						_, in := model[k]
						if replaced := tab.Insert(w, k, v); replaced != in {
							t.Fatalf("op %d: Insert(%d) replaced = %v, want %v", i, k, replaced, in)
						}
						model[k] = v
						stage = fmt.Sprintf("op %d: Insert(%d)", i, k)
					case r < 19:
						_, in := model[k]
						if removed := tab.Remove(w, k); removed != in {
							t.Fatalf("op %d: Remove(%d) = %v, want %v", i, k, removed, in)
						}
						delete(model, k)
						stage = fmt.Sprintf("op %d: Remove(%d)", i, k)
					default:
						sys.Sync()
						stage = fmt.Sprintf("op %d: Sync", i)
					}
					checkTable(t, tab, model, universe, stage)
					tombs = max(tombs, countTombs(tab))
				}
				if tombs == 0 {
					t.Fatal("no tombstone was ever left: the run does not test the probe")
				}
			})
		}
	}
}

// TestCrashRecoveryWithTombstones crashes a table whose slots hold
// tombstones, with an unsynced tail that takes some of them over, on both
// paths. Recovery rebuilds into a fresh table: it must hold exactly the
// synced keys and no tombstone, and serve operations afterwards.
func TestCrashRecoveryWithTombstones(t *testing.T) {
	const capacity, universe = 128, 200
	for _, path := range probePaths {
		t.Run(path.name, func(t *testing.T) {
			h := nvm.New(nvm.Config{Words: 1 << 20})
			sys := epoch.New(h, epoch.Config{Manual: true})
			tab := New(sys, htm.New(path.cfg), capacity, 1)
			w := sys.Register()
			model := map[uint64]uint64{}
			for k := uint64(0); k < 150; k++ {
				tab.Insert(w, k, k+1000)
				model[k] = k + 1000
			}
			for k := uint64(0); k < 150; k += 3 {
				tab.Remove(w, k)
				delete(model, k)
			}
			sys.Sync()
			checkTable(t, tab, model, universe, "before the crash")
			if countTombs(tab) == 0 {
				t.Fatal("no tombstones before the crash: the test does not test them")
			}
			synced := map[uint64]uint64{}
			for k, v := range model {
				synced[k] = v
			}
			// The unsynced tail: new keys land on tombstones, old ones leave more.
			for k := uint64(150); k < universe; k++ {
				tab.Insert(w, k, k+2000)
			}
			for k := uint64(1); k < 150; k += 3 {
				tab.Remove(w, k)
			}

			sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 1, Seed: 9})
			var recs []epoch.BlockRecord
			sys2 := epoch.Recover(h, epoch.Config{Manual: true}, func(r epoch.BlockRecord) {
				recs = append(recs, r)
			})
			tab2 := New(sys2, htm.New(path.cfg), capacity, 1)
			for _, r := range recs {
				tab2.RebuildBlock(r)
			}
			if n := countTombs(tab2); n != 0 {
				t.Fatalf("%d tombstones in the rebuilt table", n)
			}
			checkTable(t, tab2, synced, universe, "after recovery")

			w2 := sys2.Register()
			for k := uint64(0); k < universe; k += 2 {
				if _, in := synced[k]; in {
					tab2.Remove(w2, k)
					delete(synced, k)
				} else {
					tab2.Insert(w2, k, k+3000)
					synced[k] = k + 3000
				}
			}
			checkTable(t, tab2, synced, universe, "operations after recovery")
		})
	}
}
