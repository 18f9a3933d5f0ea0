package nvm

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// flatModel is the reference the heap is checked against: two copies of
// memory, view and image, as flat arrays, the obvious representation. Its
// crash mirrors Heap.Crash draw for draw.
type flatModel struct {
	mode  Mode
	view  []uint64
	img   []uint64
	dirty []bool // per line
}

func newFlatModel(words int, mode Mode) *flatModel {
	return &flatModel{mode: mode, view: make([]uint64, words), img: make([]uint64, words), dirty: make([]bool, words/LineWords)}
}

func (m *flatModel) store(a Addr, v uint64) {
	m.view[a] = v
	m.dirty[a.Line()] = true
}

// writeBack is what a flush or eviction of line l does to the media.
func (m *flatModel) writeBack(l uint64) {
	if !m.dirty[l] {
		return
	}
	m.dirty[l] = false
	copy(m.img[l*LineWords:(l+1)*LineWords], m.view[l*LineWords:])
}

// flush is an explicit flush of [a, a+words): a no-op outside ADR.
func (m *flatModel) flush(a Addr, words int) {
	if m.mode != ModeADR {
		return
	}
	for l := a.Line(); l <= (a + Addr(words) - 1).Line(); l++ {
		m.writeBack(l)
	}
}

func (m *flatModel) crash(opts CrashOptions) {
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0xbf58476d1ce4e5b9))
	switch m.mode {
	case ModeDRAM:
		clear(m.img)
	case ModeEADR:
		for l := range m.dirty {
			m.writeBack(uint64(l))
		}
	case ModeADR:
		for l := range m.dirty {
			if m.dirty[l] && opts.EvictFraction > 0 && rng.Float64() < opts.EvictFraction {
				m.writeBack(uint64(l))
			}
		}
	}
	copy(m.view, m.img)
	clear(m.dirty)
}

// TestSparseImageMatchesFlatReference drives a seeded random schedule of
// stores, the three flush calls, capacity evictions and crashes against
// the flat reference: after every op the saved pre-images must be the
// reference image of dirty lines (checkPreImages), and after every crash
// the persistent image must equal the reference's on every word — pages
// never materialised included — and so must the restored volatile view.
func TestSparseImageMatchesFlatReference(t *testing.T) {
	// Three whole pages and a partial fourth. Page 1 is never touched.
	// Page 2 is stored to (its last line only) but never flushed, so with
	// evictions off only a crash can write it back: until one does, its
	// pre-image is the zero it started as and takes no slot.
	const words = 3*pageWords + 5*XPLineWords
	for _, mode := range []Mode{ModeADR, ModeEADR, ModeDRAM} {
		for _, frac := range []float64{0, 0.5, 1} {
			for _, cacheLines := range []int{0, 48} {
				t.Run(fmt.Sprintf("%v/evict=%v/cache=%d", mode, frac, cacheLines), func(t *testing.T) {
					sparseImageRounds(t, words, mode, frac, cacheLines)
				})
			}
		}
	}
}

func sparseImageRounds(t *testing.T, words int, mode Mode, frac float64, cacheLines int) {
	h := New(Config{Words: words, Mode: mode, CacheLines: cacheLines, Seed: 7})
	m := newFlatModel(words, mode)
	// Evictions pick their victims from the heap's own RNG; the hook tells
	// the reference which line is about to go.
	hook := func(p PersistPoint, a Addr) {
		if p == PointWriteBack {
			m.writeBack(a.Line())
		}
	}
	rng := rand.New(rand.NewPCG(uint64(mode)+1, uint64(frac*16)))
	flushAddr := func() Addr {
		a := Addr(rng.Uint64N(uint64(words)))
		if p := a / pageWords; p == 1 || p == 2 {
			a %= pageWords
		}
		return a
	}
	storeAddr := func() Addr {
		if a := Addr(rng.Uint64N(uint64(words))); a/pageWords == 2 {
			return 3*pageWords - 1 - a%LineWords
		}
		return flushAddr()
	}
	span := func(a Addr, limit uint64) int { return 1 + int(rng.Uint64N(min(uint64(words)-uint64(a), limit))) }
	sawFull := false // page 0 held pre-images for more than half its lines
	for crash := 1; crash <= 6; crash++ {
		h.SetPersistHook(hook)
		for op := 0; op < 3000; op++ {
			switch rng.Uint64N(8) {
			case 0, 1, 2, 3:
				a, v := storeAddr(), rng.Uint64()
				h.Store(a, v)
				m.store(a, v)
			case 4:
				a := flushAddr()
				h.Flush(a)
				m.flush(a, 1)
			case 5:
				a := flushAddr()
				n := span(a, 3*LineWords)
				h.FlushRange(a, n)
				m.flush(a, n)
			case 6:
				exts := make([]Extent, 1+rng.Uint64N(6))
				for i := range exts {
					a := flushAddr()
					exts[i] = Extent{Addr: a, Words: span(a, 12)}
				}
				h.FlushExtents(exts)
				for _, ex := range exts {
					m.flush(ex.Addr, ex.Words)
				}
			case 7:
				a := storeAddr()
				if got := h.Load(a); got != m.view[a] {
					t.Fatalf("crash %d op %d: Load(%d) = %#x, reference %#x", crash, op, a, got, m.view[a])
				}
			}
			if err := checkPreImages(h, m, op%500 == 0); err != nil {
				t.Fatalf("crash %d op %d: %v", crash, op, err)
			}
			if pt := h.pre[0].Load(); pt != nil && len(pt.slots) > pageLines/2 {
				sawFull = true
			}
		}
		if err := checkPreImages(h, m, true); err != nil {
			t.Fatalf("before crash %d: %v", crash, err)
		}
		opts := CrashOptions{EvictFraction: frac, Seed: uint64(crash)}
		h.Crash(opts)
		m.crash(opts)
		for a := Addr(0); a < Addr(words); a++ {
			if got := h.PersistedLoad(a); got != m.img[a] {
				t.Fatalf("after crash %d: PersistedLoad(%d) = %#x, reference %#x", crash, a, got, m.img[a])
			}
		}
		if st := h.Stats(); st.PreImages != 0 {
			t.Fatalf("after crash %d: %d lines hold a pre-image, want none", crash, st.PreImages)
		}
		if err := checkPreImages(h, m, true); err != nil {
			t.Fatalf("after crash %d: %v", crash, err)
		}
		if h.view[1].Load() != nil || h.pre[1].Load() != nil {
			t.Fatal("page 1 was never stored to, yet it has a view page or a pre-image table")
		}
		for a := Addr(0); a < Addr(words); a++ {
			var got uint64 // read past Load: no residency change, no page made
			if pg := h.view[a/pageWords].Load(); pg != nil {
				got = pg[a%pageWords]
			}
			if got != m.view[a] {
				t.Fatalf("after crash %d: view[%d] = %#x, reference %#x", crash, a, got, m.view[a])
			}
		}
	}
	// Without flushes or evictions every line stays dirty until the crash,
	// so page 0's slots grow to a page's worth.
	if mode == ModeEADR && cacheLines == 0 && !sawFull {
		t.Fatal("page 0 never held pre-images for more than half its lines")
	}
}

// checkPreImages checks the pre-image tables against the reference:
// dirty ⇔ pre-image held, where a line that holds none has the zero
// pre-image. Every pre-image held belongs to a dirty line, is where the
// index says, holds that line's reference image and is not all zero
// (those are not kept); the tables' counts add up to Stats().PreImages.
// With all set it also checks that each index marks exactly its slots,
// and every line: the dirty bits are the reference's, and a dirty line
// that holds no pre-image has a zero reference image.
func checkPreImages(h *Heap, m *flatModel, all bool) error {
	held, kept := int64(0), map[uint64]bool{}
	table := func(p int, t *preImages) error {
		t.mu.Lock()
		defer t.mu.Unlock()
		for s := range t.slots {
			i := uint64(t.slots[s].line)
			l := uint64(p)*pageLines + i
			if all {
				kept[l] = true
			}
			w, img := &t.slots[s].words, m.img[l*LineWords:][:LineWords]
			switch {
			case t.find(i) != w:
				return fmt.Errorf("line %d: its pre-image is in slot %d, the index says %d", l, s, int(t.index[i])-1)
			case !h.dirty.test(l):
				return fmt.Errorf("clean line %d holds a pre-image", l)
			case *w == [LineWords]uint64{}:
				return fmt.Errorf("line %d holds an all-zero pre-image", l)
			case [LineWords]uint64(img) != *w:
				return fmt.Errorf("line %d: pre-image %#x, reference image %#x", l, *w, img)
			}
		}
		indexed := len(t.slots)
		if all {
			indexed = 0
			for _, x := range t.index {
				if x != 0 {
					indexed++
				}
			}
		}
		if indexed != len(t.slots) || cap(t.slots) > pageLines {
			return fmt.Errorf("page %d: %d lines indexed, %d slots of capacity %d", p, indexed, len(t.slots), cap(t.slots))
		}
		held += int64(len(t.slots))
		return nil
	}
	for p := range h.pre {
		if t := h.pre[p].Load(); t != nil {
			if err := table(p, t); err != nil {
				return err
			}
		}
	}
	if n := h.stats.preImages.Load(); n != held {
		return fmt.Errorf("Stats().PreImages = %d, the tables hold %d", n, held)
	}
	if !all {
		return nil
	}
	for l := range m.dirty {
		if d := h.dirty.test(uint64(l)); d != m.dirty[l] {
			return fmt.Errorf("line %d: dirty %v, reference %v", l, d, m.dirty[l])
		}
		if m.dirty[l] && !kept[uint64(l)] && [LineWords]uint64(m.img[l*LineWords:][:LineWords]) != [LineWords]uint64{} {
			return fmt.Errorf("dirty line %d holds no pre-image, reference image %#x", l, m.img[l*LineWords:][:LineWords])
		}
	}
	return nil
}

// TestImagePageFirstWriteBackRace has four goroutines flush disjoint lines
// of one never-persisted page at once: they race to materialise it, and
// every line must land in the page that won. Part of the race lane.
func TestImagePageFirstWriteBackRace(t *testing.T) {
	const goroutines = 4
	for round := 0; round < 50; round++ {
		h := New(Config{Words: 2 * pageWords})
		for l := 0; l < pageWords/LineWords; l++ {
			h.Store(Addr(pageWords+l*LineWords), uint64(l)+1)
		}
		var start, wg sync.WaitGroup
		start.Add(1)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				// Line l belongs to goroutine l % goroutines; each uses a
				// different flush call.
				for l := g; l < pageWords/LineWords; l += goroutines {
					a := Addr(pageWords + l*LineWords)
					switch g % 3 {
					case 0:
						h.Flush(a)
					case 1:
						h.FlushRange(a, LineWords)
					default:
						h.FlushExtents([]Extent{{Addr: a, Words: 1}})
					}
				}
			}()
		}
		start.Done()
		wg.Wait()
		for l := 0; l < pageWords/LineWords; l++ {
			if got := h.PersistedLoad(Addr(pageWords + l*LineWords)); got != uint64(l)+1 {
				t.Fatalf("round %d: line %d persisted as %d, want %d", round, l, got, l+1)
			}
		}
	}
}

// TestNewAllocatesTablesOnly pins what paging the view is for: a fresh
// heap costs its one page table, one pre-image table pointer per page, its
// two line bitsets and the Heap itself (its sharded counters), and 4 KiB
// besides at most — no copy of its words.
func TestNewAllocatesTablesOnly(t *testing.T) {
	const words = 1 << 24
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := New(Config{Words: words})
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	tables := uint64(8*(words/pageWords) + 8*(words/pageWords) + 2*(words/LineWords)/8)
	if limit := tables + uint64(unsafe.Sizeof(Heap{})) + 4<<10; got >= limit {
		t.Fatalf("New(%d words) allocated %d bytes, want < %d (page tables and bitsets: %d, Heap: %d)", words, got, limit, tables, unsafe.Sizeof(Heap{}))
	}
	runtime.KeepAlive(h)
}
