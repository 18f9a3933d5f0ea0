package kv

import (
	"sync"
	"testing"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

const testKeys = 1 << 10

// testParts builds what kind k takes, on h when recovering.
func testParts(k Kind, h *nvm.Heap) Parts {
	p := Parts{TM: htm.New(htm.Config{}), Epoch: epoch.Config{Manual: true}, KeySpace: testKeys, Threads: 2}
	if k.Heap != nvm.ModeDRAM {
		if p.Heap = h; h == nil {
			p.Heap = nvm.New(nvm.Config{Words: max(1<<18, k.MinHeapWords), Mode: k.Heap, Seed: 7})
		}
	}
	if k.Index {
		p.Index = nvm.New(nvm.Config{Words: 1 << 18, Mode: nvm.ModeDRAM})
	}
	return p
}

type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// TestContract drives every kind through a seeded script against a map
// model: Insert reports whether it replaced, Remove whether the key was
// there, Get what the model holds, Len the model's size, and Epoch the
// epoch a buffered kind's write committed in (0 on every other kind).
// Plush's sessions write blind: they report nothing and keep no count, so
// only its reads are checked.
func TestContract(t *testing.T) {
	for _, k := range kinds {
		k := k.Kind
		t.Run(k.Name, func(t *testing.T) {
			st := Open(k.Name, testParts(k, nil))
			defer st.Close()
			if st.Kind != k || (st.Sys != nil) != k.Buffered || (st.Heap != nil) != (k.Heap != nvm.ModeDRAM) {
				t.Fatalf("stack %+v does not match kind %+v", st, k)
			}
			blind := k.Name == "plush"
			s, model, r := st.Store.NewSession(), map[uint64]uint64{}, rng(1)
			for i := 0; i < 2000; i++ {
				if k.Buffered && i%64 == 63 {
					st.Sys.AdvanceOnce()
				}
				var epochNow uint64
				if k.Buffered {
					epochNow = st.Sys.GlobalEpoch()
				}
				key, val := r.next()%256, r.next()>>1
				old, had := model[key]
				switch op := r.next() % 10; {
				case op < 4:
					if got := s.Insert(key, val); got != had && !blind {
						t.Fatalf("op %d: Insert(%d) reported replaced=%v, model had it: %v", i, key, got, had)
					}
					model[key] = val
				case op < 7:
					if got := s.Remove(key); got != had && !blind {
						t.Fatalf("op %d: Remove(%d) = %v, model had it: %v", i, key, got, had)
					}
					delete(model, key)
				default:
					if v, ok := s.Get(key); ok != had || v != old {
						t.Fatalf("op %d: Get(%d) = %d,%v, model %d,%v", i, key, v, ok, old, had)
					}
					continue
				}
				if got := s.Epoch(); got != epochNow {
					t.Fatalf("op %d: Epoch() = %d after a write in epoch %d", i, got, epochNow)
				}
				if n := st.Store.Len(); n != len(model) && !blind {
					t.Fatalf("op %d: Len() = %d, model has %d", i, n, len(model))
				}
			}
			// A second session sees the first one's writes.
			s2 := st.Store.NewSession()
			for key := uint64(0); key < 256; key++ {
				want, had := model[key]
				if v, ok := s2.Get(key); ok != had || v != want {
					t.Fatalf("second session: Get(%d) = %d,%v, model %d,%v", key, v, ok, want, had)
				}
			}
		})
	}
}

// TestRecover is Sec. 5.2 through the one rebuild loop, for every buffered
// kind: what was synced comes back exactly, an unsynced tail of overwrites,
// removes and fresh keys does not, with half the dirty lines written back
// at the crash; and the scan's records, the rebuilt structure and the
// recovered allocator agree on how many blocks live.
func TestRecover(t *testing.T) {
	for _, name := range BufferedKinds() {
		k, _ := Lookup(name)
		t.Run(name, func(t *testing.T) {
			st := Open(name, testParts(k, nil))
			s := st.Store.NewSession()
			synced := map[uint64]uint64{}
			for key := uint64(0); key < 600; key++ {
				s.Insert(key, key*3+1)
				synced[key] = key*3 + 1
			}
			st.Sync()
			for key := uint64(0); key < 600; key += 3 {
				s.Insert(key, 7)
				s.Remove(key + 1)
				s.Insert(600+key/3, 9)
			}
			st.Sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 0.5, Seed: 11})

			rec := Recover(name, testParts(k, st.Heap))
			defer rec.Close()
			s = rec.Store.NewSession()
			for key := uint64(0); key < testKeys; key++ {
				want, had := synced[key]
				if v, ok := s.Get(key); ok != had || v != want {
					t.Fatalf("Get(%d) = %d,%v after recovery, synced %d,%v", key, v, ok, want, had)
				}
			}
			n, live := rec.Store.Len(), rec.Sys.Allocator().LiveBlocks()
			if len(rec.Recovered) != len(synced) || n != len(synced) || live != int64(len(synced)) {
				t.Fatalf("%d records, Len %d, %d live blocks; want %d each", len(rec.Recovered), n, live, len(synced))
			}
			if rec.RebuildNS <= 0 {
				t.Fatalf("RebuildNS = %d", rec.RebuildNS)
			}
		})
	}
}

// TestConcurrentSessions: sessions of one store are independent handles;
// four goroutines on disjoint keys, with the epoch advancing under them,
// leave exactly their own writes (run under -race in CI).
func TestConcurrentSessions(t *testing.T) {
	for _, name := range BufferedKinds() {
		k, _ := Lookup(name)
		t.Run(name, func(t *testing.T) {
			p := testParts(k, nil)
			p.Threads = 4
			st := Open(name, p)
			defer st.Close()
			var wg sync.WaitGroup
			for g := uint64(0); g < 4; g++ {
				s := st.Store.NewSession()
				wg.Add(1)
				go func(g uint64) {
					defer wg.Done()
					for i := uint64(0); i < 200; i++ {
						s.Insert(g*200+i, g)
						if i%2 == 1 {
							s.Remove(g*200 + i)
						}
					}
				}(g)
			}
			for i := 0; i < 8; i++ {
				st.Sys.AdvanceOnce()
			}
			wg.Wait()
			if n := st.Store.Len(); n != 400 {
				t.Fatalf("Len() = %d, want 400", n)
			}
		})
	}
}

// TestStrictRecover: the strict kinds the fuzzer crashes come back through
// their own recovery with every completed operation.
func TestStrictRecover(t *testing.T) {
	for _, name := range []string{"cceh", "lbtree"} {
		k, _ := Lookup(name)
		t.Run(name, func(t *testing.T) {
			st := Open(name, testParts(k, nil))
			s := st.Store.NewSession()
			for key := uint64(0); key < 300; key++ {
				s.Insert(key, key+1)
			}
			st.Heap.Crash(nvm.CrashOptions{})
			rec := Recover(name, testParts(k, st.Heap))
			if n := rec.Store.Len(); n != 300 {
				t.Fatalf("Len() = %d after recovery, want 300", n)
			}
			if v, ok := rec.Store.NewSession().Get(299); !ok || v != 300 {
				t.Fatalf("Get(299) = %d,%v", v, ok)
			}
		})
	}
}

func TestUnknownKind(t *testing.T) {
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup found a kind that is not in the table")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Open of an unknown kind did not panic")
		}
	}()
	Open("nope", Parts{})
}
