package nvm

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestViewPagesFollowStores: a fresh heap has no view page; one appears
// with the first Store, CompareAndSwap, Add or WordPtr into it. Loads
// materialise nothing and read zero. A line saves a pre-image only when a
// store dirties it over persisted contents that are not all zero, and
// drops it when it is written back.
func TestViewPagesFollowStores(t *testing.T) {
	h := New(Config{Words: 8 * pageWords})
	pages := func() (view, pre int64) {
		st := h.Stats()
		return st.ViewPages, st.PreImages
	}
	for a := Addr(0); a < Addr(h.Words()); a += 61 {
		if v := h.Load(a); v != 0 {
			t.Fatalf("Load(%d) of a fresh heap = %d", a, v)
		}
	}
	if v, i := pages(); v != 0 || i != 0 {
		t.Fatalf("loads of a fresh heap: %d view pages and %d pre-images", v, i)
	}
	h.Store(1*pageWords+5, 1)
	h.Store(1*pageWords+900, 2) // same page
	h.CompareAndSwap(3*pageWords, 0, 3)
	h.Add(5*pageWords+17, 4)
	_ = h.WordPtr(7*pageWords - 1)
	if v, i := pages(); v != 4 || i != 0 {
		t.Fatalf("first stores into 4 pages: %d view pages and %d pre-images, want 4 and 0", v, i)
	}
	h.Persist(1*pageWords + 5)
	h.FlushRange(5*pageWords, LineWords*4)
	h.Store(1*pageWords+6, 5) // dirties a persisted line
	h.Add(5*pageWords+17, 1)
	h.Store(1*pageWords+900, 6) // still dirty: no second pre-image
	if v, i := pages(); v != 4 || i != 2 {
		t.Fatalf("stores to 2 written-back lines: %d view pages and %d pre-images, want 4 and 2", v, i)
	}
	if got := h.PersistedLoad(1*pageWords + 5); got != 1 {
		t.Fatalf("PersistedLoad of a dirty line's word = %d, want its pre-image's 1", got)
	}
	h.Persist(1*pageWords + 6)
	if v, i := pages(); v != 4 || i != 1 {
		t.Fatalf("one of them written back: %d view pages and %d pre-images, want 4 and 1", v, i)
	}
	for a, want := range map[Addr]uint64{1*pageWords + 5: 1, 1*pageWords + 6: 5, 1*pageWords + 900: 6, 3 * pageWords: 3, 5*pageWords + 17: 5, 2 * pageWords: 0} {
		if got := h.Load(a); got != want {
			t.Fatalf("Load(%d) = %d, want %d", a, got, want)
		}
	}
}

// TestCrashMaterialisesOnlyImagePages: a crash restores the persisted
// image into the view's pages in place and materialises no page: a page
// whose words were all lost reads zero again, and a page nothing stored to
// stays unmaterialised. A lost line that held data before it was dirtied
// gets its pre-image back, and no pre-image table outlives the crash. ModeDRAM
// zeroes the view in place.
func TestCrashMaterialisesOnlyImagePages(t *testing.T) {
	for _, mode := range []Mode{ModeADR, ModeEADR, ModeDRAM} {
		t.Run(mode.String(), func(t *testing.T) {
			h := New(Config{Words: 8 * pageWords, Mode: mode})
			h.Store(2*pageWords+8, 7)
			h.Persist(2*pageWords + 8)
			h.Store(2*pageWords+9, 8) // dirties the persisted line again
			h.Store(4*pageWords+8, 9) // never flushed
			if st := h.Stats(); st.PreImages != 1 && mode == ModeADR {
				t.Fatalf("before the crash: %d pre-images, want 1", st.PreImages)
			}
			h.Crash(CrashOptions{})
			st := h.Stats()
			wantPersisted, wantLost, wantSecond := uint64(7), uint64(0), uint64(0)
			switch mode {
			case ModeEADR:
				wantLost, wantSecond = 9, 8 // the cache drains at the crash
			case ModeDRAM:
				wantPersisted = 0
			}
			if st.ViewPages != 2 || st.PreImages != 0 {
				t.Fatalf("after the crash: %d view pages and %d pre-images, want 2 and 0", st.ViewPages, st.PreImages)
			}
			for p := range h.pre {
				if h.pre[p].Load() != nil {
					t.Fatalf("page %d's pre-image table outlived the crash", p)
				}
			}
			if got := h.Load(2*pageWords + 9); got != wantSecond {
				t.Fatalf("the store over a persisted line reads %d after the crash, want %d", got, wantSecond)
			}
			if got := h.Load(2*pageWords + 8); got != wantPersisted {
				t.Fatalf("persisted word reads %d after the crash, want %d", got, wantPersisted)
			}
			if got := h.Load(4*pageWords + 8); got != wantLost {
				t.Fatalf("unflushed word reads %d after the crash, want %d", got, wantLost)
			}
			for p := range h.view {
				if p != 2 && p != 4 && h.view[p].Load() != nil {
					t.Fatalf("the crash materialised view page %d", p)
				}
			}
		})
	}
}

// TestWordPtrStableAcrossCrash: a WordPtr stays the word's address for
// the heap's lifetime — a crash overwrites the view in place — whether the
// word's page survives in the image or not.
func TestWordPtrStableAcrossCrash(t *testing.T) {
	h := New(Config{Words: 4 * pageWords})
	kept, lost := h.WordPtr(pageWords+3), h.WordPtr(3*pageWords+3)
	h.Store(pageWords+3, 11)
	h.Persist(pageWords + 3)
	h.Store(3*pageWords+3, 12)
	h.Crash(CrashOptions{})
	if p := h.WordPtr(pageWords + 3); p != kept || *p != 11 {
		t.Fatalf("persisted word: WordPtr %p -> %p, value %d, want the same pointer and 11", kept, p, *p)
	}
	if p := h.WordPtr(3*pageWords + 3); p != lost || *p != 0 {
		t.Fatalf("lost word: WordPtr %p -> %p, value %d, want the same pointer and 0", lost, p, *p)
	}
}

// TestViewPageFirstStoreRace has goroutines make the first stores into one
// fresh page at once, each through a different call: they race to
// materialise it, and every store must land in the page that won. Part of
// the race lane.
func TestViewPageFirstStoreRace(t *testing.T) {
	const goroutines = 4
	for round := 0; round < 50; round++ {
		h := New(Config{Words: 2 * pageWords})
		var start, wg sync.WaitGroup
		start.Add(1)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				for w := g; w < pageWords; w += goroutines * 61 {
					a, v := Addr(pageWords+w), uint64(w)+1
					switch g {
					case 0:
						h.Store(a, v)
					case 1:
						h.CompareAndSwap(a, 0, v)
					case 2:
						h.Add(a, v)
					default:
						p := h.WordPtr(a)
						h.Store(a, v)
						if got := atomic.LoadUint64(p); got != v {
							t.Errorf("word %d: WordPtr reads %d after Store, want %d", w, got, v)
						}
					}
				}
			}()
		}
		start.Done()
		wg.Wait()
		for g := 0; g < goroutines; g++ {
			for w := g; w < pageWords; w += goroutines * 61 {
				if got := h.Load(Addr(pageWords + w)); got != uint64(w)+1 {
					t.Fatalf("round %d: word %d reads %d, want %d", round, w, got, w+1)
				}
			}
		}
		if st := h.Stats(); st.ViewPages != 1 {
			t.Fatalf("round %d: %d view pages, want 1", round, st.ViewPages)
		}
	}
}
