package palloc

import (
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"bdhtm/internal/nvm"
)

func newAlloc(t *testing.T) *Allocator {
	t.Helper()
	return New(nvm.New(nvm.Config{Words: 1 << 18}))
}

func TestHeaderPackUnpack(t *testing.T) {
	f := func(status uint8, class uint8, tag uint8, epoch uint64) bool {
		h := Header{
			Status: Status(status % 3),
			Class:  int(class) % NumClasses(),
			Tag:    tag,
			Epoch:  epoch & InvalidEpoch,
		}
		return UnpackHeader(h.Pack()) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassFor(t *testing.T) {
	cases := map[int]int{1: 0, 2: 0, 3: 1, 7: 1, 8: 2, 15: 2, 16: 3, 31: 3, 63: 4, 127: 5, 255: 6}
	for words, want := range cases {
		if got := ClassFor(words); got != want {
			t.Errorf("ClassFor(%d) = %d, want %d", words, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ClassFor(1<<20) should panic")
		}
	}()
	ClassFor(1 << 20)
}

func TestAllocReturnsAllocatedInvalidEpoch(t *testing.T) {
	al := newAlloc(t)
	b := al.Alloc(0, 5)
	hdr := al.ReadHeader(b)
	if hdr.Status != Allocated || hdr.Class != 0 || hdr.Tag != 5 || hdr.Epoch != InvalidEpoch {
		t.Fatalf("header = %+v", hdr)
	}
	// Ralloc-style lazy persistence: the header is volatile until the
	// block's epoch flushes it; the media still shows the formatted FREE
	// state, so a crash right now reclaims the block.
	if got := UnpackHeader(al.Heap().PersistedLoad(b)); got.Status != Free {
		t.Fatalf("persisted header = %+v, want FREE until epoch flush", got)
	}
}

func TestUnflushedAllocationReclaimedAtCrash(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 18})
	al := New(h)
	al.Alloc(0, 1) // never flushed by any epoch
	h.Crash(nvm.CrashOptions{})
	al2 := New(h)
	scanned := 0
	al2.Recover(1, func(int, BlockInfo) bool { scanned++; return true })
	if scanned != 0 {
		t.Fatalf("unflushed allocation survived the crash (%d blocks)", scanned)
	}
}

func TestAllocDistinctBlocks(t *testing.T) {
	al := newAlloc(t)
	seen := make(map[nvm.Addr]bool)
	for i := 0; i < 1000; i++ {
		b := al.Alloc(0, 0)
		if seen[b] {
			t.Fatalf("block %d allocated twice", b)
		}
		seen[b] = true
	}
}

func TestFreeAndReuse(t *testing.T) {
	al := newAlloc(t)
	b := al.Alloc(1, 0)
	al.Free(b)
	if got := al.ReadHeader(b).Status; got != Free {
		t.Fatalf("status after Free = %v", got)
	}
	b2 := al.Alloc(1, 0)
	if b2 != b {
		t.Fatalf("expected LIFO reuse of freed block: got %d, want %d", b2, b)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	al := newAlloc(t)
	b := al.Alloc(0, 0)
	al.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double free should panic")
		}
	}()
	al.Free(b)
}

func TestLiveAccounting(t *testing.T) {
	al := newAlloc(t)
	var blocks []nvm.Addr
	for i := 0; i < 10; i++ {
		blocks = append(blocks, al.Alloc(0, 0))
	}
	if al.LiveBlocks() != 10 {
		t.Fatalf("LiveBlocks = %d, want 10", al.LiveBlocks())
	}
	wantBytes := int64(10 * ClassWords(0) * nvm.WordBytes)
	if al.LiveBytes() != wantBytes {
		t.Fatalf("LiveBytes = %d, want %d", al.LiveBytes(), wantBytes)
	}
	for _, b := range blocks {
		al.Free(b)
	}
	if al.LiveBlocks() != 0 || al.LiveBytes() != 0 {
		t.Fatalf("after frees: blocks=%d bytes=%d", al.LiveBlocks(), al.LiveBytes())
	}
}

func TestRecoveryRebuildsFreeLists(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 18})
	al := New(h)
	kept := al.Alloc(0, 1)
	dropped := al.Alloc(0, 2)
	payload := Payload(kept)
	h.Store(payload, 42)
	h.Persist(payload)

	h.Crash(nvm.CrashOptions{})
	al2 := New(h)
	var scanned []BlockInfo
	al2.Recover(1, func(_ int, bi BlockInfo) bool {
		scanned = append(scanned, bi)
		return bi.Header.Tag == 1
	})
	if len(scanned) != 2 {
		t.Fatalf("scanned %d blocks, want 2", len(scanned))
	}
	if al2.LiveBlocks() != 1 {
		t.Fatalf("LiveBlocks after recovery = %d, want 1", al2.LiveBlocks())
	}
	if got := al2.ReadHeader(dropped).Status; got != Free {
		t.Fatalf("dropped block status = %v, want FREE", got)
	}
	if got := h.Load(payload); got != 42 {
		t.Fatalf("kept payload = %d, want 42", got)
	}
	// The reclaimed block must be allocatable again.
	nb := al2.Alloc(0, 0)
	if nb != dropped {
		// Not required to be exactly it, but it must come from the free
		// list rather than formatting a new slab.
		if al2.FootprintBytes() != al.FootprintBytes() {
			t.Fatalf("recovery lost free space: footprint grew")
		}
	}
}

func TestRecoveryPreservesClassFromSlab(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 18})
	al := New(h)
	b := al.Alloc(2, 9) // class 2
	h.Crash(nvm.CrashOptions{})
	al2 := New(h)
	al2.Recover(1, func(_ int, bi BlockInfo) bool {
		if bi.Addr == b && bi.Header.Class != 2 {
			t.Errorf("recovered class = %d, want 2", bi.Header.Class)
		}
		return true
	})
}

func TestFlushedAllocationSurvivesCrash(t *testing.T) {
	// A block whose contents were flushed (as the epoch system does when
	// its epoch closes) survives, header and payload together.
	h := nvm.New(nvm.Config{Words: 1 << 18})
	al := New(h)
	b := al.Alloc(0, 3)
	h.Store(Payload(b), 7)
	h.FlushRange(b, ClassWords(0))
	h.Fence()
	h.Crash(nvm.CrashOptions{})
	al2 := New(h)
	var got Header
	al2.Recover(1, func(_ int, bi BlockInfo) bool {
		if bi.Addr == b {
			got = bi.Header
		}
		return true
	})
	if got.Status != Allocated || got.Epoch != InvalidEpoch || got.Tag != 3 {
		t.Fatalf("recovered header %+v", got)
	}
	if v := h.Load(Payload(b)); v != 7 {
		t.Fatalf("flushed payload lost: %d", v)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	al := New(nvm.New(nvm.Config{Words: 1 << 20}))
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := make(map[nvm.Addr]int)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id), 3))
			var mine []nvm.Addr
			for i := 0; i < 500; i++ {
				if len(mine) > 0 && rng.Uint64N(2) == 0 {
					b := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					al.Free(b)
				} else {
					b := al.Alloc(int(rng.Uint64N(3)), uint8(id))
					mine = append(mine, b)
					mu.Lock()
					seen[b]++
					mu.Unlock()
				}
			}
			for _, b := range mine {
				al.Free(b)
			}
		}(g)
	}
	wg.Wait()
	if al.LiveBlocks() != 0 {
		t.Fatalf("LiveBlocks = %d after all frees", al.LiveBlocks())
	}
}

// Property: under lazy header persistence, exactly the blocks whose
// contents were flushed while allocated (and not flushed again after
// being freed) are recovered. This is the raw-allocator contract; the
// epoch system layers its DELETED-marker protocol on top to make frees
// crash consistent.
func TestQuickCrashRecoveryLiveSet(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		h := nvm.New(nvm.Config{Words: 1 << 18})
		al := New(h)
		durable := make(map[nvm.Addr]bool)
		for _, op := range ops {
			// Classes >= 1 are cache-line aligned, so flushing one block
			// cannot accidentally persist a neighbour's header.
			class := 1 + int(op)%2
			b := al.Alloc(class, 0)
			if op%2 == 0 {
				// "Epoch closes": the block's contents become durable.
				h.FlushRange(b, ClassWords(class))
				durable[b] = true
			}
		}
		h.Fence()
		h.Crash(nvm.CrashOptions{Seed: seed | 1})
		al2 := New(h)
		recovered := make(map[nvm.Addr]bool)
		al2.Recover(1, func(_ int, bi BlockInfo) bool {
			recovered[bi.Addr] = true
			return true
		})
		if len(recovered) != len(durable) {
			return false
		}
		for b := range durable {
			if !recovered[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Free: "FREE", Allocated: "ALLOCATED", Deleted: "DELETED"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestFootprintGrowsBySlab(t *testing.T) {
	al := newAlloc(t)
	if al.FootprintBytes() != 0 {
		t.Fatalf("initial footprint %d", al.FootprintBytes())
	}
	al.Alloc(0, 0)
	if al.FootprintBytes() != slabWords*nvm.WordBytes {
		t.Fatalf("footprint after first alloc = %d", al.FootprintBytes())
	}
}

func TestOutOfMemoryPanics(t *testing.T) {
	al := New(nvm.New(nvm.Config{Words: slabWords * 2})) // 1 usable slab
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-NVM panic")
		}
	}()
	for i := 0; i < 1<<20; i++ {
		al.Alloc(5, 0) // large class exhausts quickly
	}
}

// TestJournalSlabsAreSkippedAndCounted: a journal slab between two block
// slabs is invisible to every block scan — whatever its owner wrote there —
// is found again from the slab headers after a crash, and counts towards
// the footprint like any other slab.
func TestJournalSlabsAreSkippedAndCounted(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 16})
	al := New(h)
	before := al.Alloc(0, 1)
	h.Store(before, Header{Status: Allocated, Tag: 1, Epoch: 3}.Pack())
	h.FlushRange(before, ClassWords(0))

	area := al.FormatJournalSlab()
	if area.Addr%nvm.XPLineWords != 0 || area.Words != slabWords-nvm.XPLineWords {
		t.Fatalf("journal area %+v: want XPLine-aligned, one XPLine short of a slab", area)
	}
	// Fill the area with words that would read as ALLOCATED class-0 block
	// headers if a scan walked it.
	for i := 0; i < area.Words; i++ {
		h.Store(area.Addr+nvm.Addr(i), Header{Status: Allocated, Tag: 9, Epoch: 1}.Pack())
	}
	h.FlushRange(area.Addr, area.Words)

	// Exhaust the first block slab so the next allocation formats a third.
	var after nvm.Addr
	for al.FootprintBytes() < 3*slabWords*nvm.WordBytes {
		after = al.Alloc(0, 2)
	}
	h.Store(after, Header{Status: Allocated, Tag: 2, Epoch: 3}.Pack())
	h.FlushRange(after, ClassWords(0))
	h.Fence()
	h.Crash(nvm.CrashOptions{})

	for _, workers := range []int{1, 3} {
		al2 := New(h)
		if got := al2.JournalSlabs(); len(got) != 1 || got[0] != area {
			t.Fatalf("JournalSlabs() after crash = %+v, want [%+v]", got, area)
		}
		var (
			mu   sync.Mutex
			seen []uint8
		)
		al2.Recover(workers, func(_ int, bi BlockInfo) bool {
			mu.Lock()
			defer mu.Unlock()
			seen = append(seen, bi.Header.Tag)
			return true
		})
		sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
		if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
			t.Fatalf("workers=%d: judged tags %v, want the two flushed blocks [1 2] and nothing from the journal slab", workers, seen)
		}
		if got := al2.FootprintBytes(); got != 3*slabWords*nvm.WordBytes {
			t.Fatalf("workers=%d: footprint %d, want 3 slabs (journal slab included)", workers, got)
		}
		n := 0
		al2.Scan(func(BlockInfo) { n++ })
		if n != 2 {
			t.Fatalf("workers=%d: Scan visited %d blocks, want 2", workers, n)
		}
		if h.Load(area.Addr) != (Header{Status: Allocated, Tag: 9, Epoch: 1}.Pack()) {
			t.Fatalf("workers=%d: recovery wrote into the journal area", workers)
		}
	}
}

// TestClassZeroGeometry pins the KV block layout: a one-word header and two
// payload words, 1362 to a slab, packed from the slab header's line on with
// no padding — so two blocks in eight straddle a cache line and two in
// thirty-two an XPLine — and none reaching past its slab. The largest class
// keeps its index and size (bench/probes.go allocates class 6 by number).
func TestClassZeroGeometry(t *testing.T) {
	if HeaderWords != 1 || ClassWords(0) != 3 || PayloadWords(0) != 2 || ClassWords(6) != 256 {
		t.Fatalf("HeaderWords=%d ClassWords(0)=%d PayloadWords(0)=%d ClassWords(6)=%d, want 1 3 2 256",
			HeaderWords, ClassWords(0), PayloadWords(0), ClassWords(6))
	}
	if got := slabCap(0); got != 1362 {
		t.Fatalf("slabCap(0) = %d, want 1362", got)
	}
	al := New(nvm.New(nvm.Config{Words: 1 << 16}))
	first := al.Alloc(0, 0)
	slab := first - slabBlocksOff
	lineStraddle, xpStraddle := 0, 0
	for i, b := 0, first; i < slabCap(0); i++ {
		if want := first + nvm.Addr(3*i); b != want {
			t.Fatalf("block %d at %d, want %d (dense packing)", i, b, want)
		}
		last := b + nvm.Addr(ClassWords(0)) - 1
		if last >= slab+slabWords {
			t.Fatalf("block %d [%d, %d] crosses the slab end %d", i, b, last, slab+slabWords)
		}
		if b.Line() != last.Line() {
			lineStraddle++
			if m := b % nvm.LineWords; m != 6 && m != 7 {
				t.Fatalf("block %d straddles a line from offset %d", i, m)
			}
		}
		if b.XPLine() != last.XPLine() {
			xpStraddle++
		}
		if i+1 < slabCap(0) {
			b = al.Alloc(0, 0)
		}
	}
	// 1362 = 170 groups of eight (and 42 of thirty-two) plus a remainder
	// that holds no further straddler.
	if lineStraddle != 2*(1362/8) || xpStraddle != 2*(1362/32) {
		t.Fatalf("%d line and %d XPLine straddlers in a slab, want %d and %d",
			lineStraddle, xpStraddle, 2*(1362/8), 2*(1362/32))
	}
	if next := al.Alloc(0, 0); next != slab+slabWords+slabBlocksOff {
		t.Fatalf("block 1363 at %d, want the start of the next slab (%d)", next, slab+slabWords+slabBlocksOff)
	}
}

// TestScansAgreeOnStraddlingBlocks: Scan and Recover on 1, 2 or 3 workers
// see the same blocks, in the same order, on slabs full of class-0 blocks —
// line straddlers, XPLine straddlers and the blocks that share the slab's
// last line included — and rebuild the same free lists from them.
func TestScansAgreeOnStraddlingBlocks(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 16})
	al := New(h)
	n := 2*slabCap(0) + 5 // two full slabs and the start of a third
	blocks := make([]nvm.Addr, n)
	for i := range blocks {
		blocks[i] = al.Alloc(0, uint8(i))
	}
	for i, b := range blocks {
		if i%7 == 3 {
			al.Free(b)
			h.Flush(b)
			continue
		}
		status := Allocated
		if i%5 == 0 {
			status = Deleted
		}
		h.Store(b, Header{Status: status, Tag: uint8(i), Epoch: uint64(2 + i%3)}.Pack())
		h.Store(Payload(b), uint64(i))
		h.FlushRange(b, ClassWords(0))
	}
	h.Fence()
	h.Crash(nvm.CrashOptions{})

	var scanned []BlockInfo
	New(h).Scan(func(bi BlockInfo) { scanned = append(scanned, bi) })
	if want := n - (n+3)/7; len(scanned) != want {
		t.Fatalf("Scan saw %d blocks, want %d", len(scanned), want)
	}
	for _, bi := range scanned {
		if uint64(bi.Header.Tag) != h.Load(Payload(bi.Addr))&0xff {
			t.Fatalf("block %d: header tag %d over payload %d", bi.Addr, bi.Header.Tag, h.Load(Payload(bi.Addr)))
		}
	}
	keep := func(bi BlockInfo) bool { return bi.Header.Status == Allocated }

	var want []BlockInfo
	for _, bi := range scanned {
		if keep(bi) {
			want = append(want, bi)
		}
	}
	var first *Allocator
	for i, workers := range []int{1, 2, 3} {
		al := New(h)
		perWorker := make([][]BlockInfo, workers)
		if got := al.Recover(workers, func(w int, bi BlockInfo) bool {
			perWorker[w] = append(perWorker[w], bi)
			return keep(bi)
		}); got != workers {
			t.Fatalf("Recover(%d) ran on %d workers over 3 formatted slabs", workers, got)
		}
		var merged []BlockInfo
		for _, l := range perWorker {
			merged = append(merged, l...)
		}
		if i == 0 {
			// The first pass judges every block Scan saw and reclaims the
			// DELETED ones; the later passes, over the image a second crash
			// keeps, see only what it kept.
			if !slices.Equal(merged, scanned) {
				t.Fatalf("Recover judged %d blocks, Scan saw %d, or in another order", len(merged), len(scanned))
			}
			first = al
		} else {
			if !slices.Equal(merged, want) {
				t.Fatalf("workers=%d: judged %d blocks, want the %d the first pass kept", workers, len(merged), len(want))
			}
			if al.LiveBlocks() != first.LiveBlocks() || !slices.Equal(al.free[0], first.free[0]) {
				t.Fatalf("workers=%d: %d live and %d free blocks, one worker rebuilt %d and %d",
					workers, al.LiveBlocks(), len(al.free[0]), first.LiveBlocks(), len(first.free[0]))
			}
		}
		h.Crash(nvm.CrashOptions{})
	}
}

// TestFreshSlabFormatsOneLine: a slab whose header word reads 0 has never
// been formatted, so its media is zero and its block headers already decode
// as FREE; formatting it writes back the slab header's line and fences, and
// nothing else. A slab that carries the magic already (a new allocator over a
// used heap) still has every block header reset.
func TestFreshSlabFormatsOneLine(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 18})
	before := h.Stats()
	New(h).Alloc(2, 1)
	if d := h.Stats().Sub(before); d.Flushes != 1 || d.Fences != 1 {
		t.Fatalf("formatting a fresh slab took %d flushes and %d fences, want 1 and 1", d.Flushes, d.Fences)
	}
	before = h.Stats()
	New(h).Alloc(2, 1)
	if d := h.Stats().Sub(before); d.Flushes != slabWords/nvm.LineWords {
		t.Fatalf("reformatting a used slab took %d flushes, want all %d lines", d.Flushes, slabWords/nvm.LineWords)
	}
}

// TestFreshSlabBlocksRecoverFree power-fails an allocator that carved
// blocks out of a fresh slab — some made durable under a committed stamp,
// the rest allocated and written but never persisted — with none, half or
// all of the dirty lines written back. Recovery keeps exactly the committed
// blocks and returns every other block of the slab as FREE, of the slab's
// class, whether its header on the media is the zero the slab was formatted
// with or an ALLOCATED header a stray write-back carried there.
func TestFreshSlabBlocksRecoverFree(t *testing.T) {
	const class, committed = 2, 1
	for _, evict := range []float64{0, 0.5, 1} {
		h := nvm.New(nvm.Config{Words: 1 << 18, Seed: 3})
		al := New(h)
		var blocks []nvm.Addr
		kept := map[nvm.Addr]bool{}
		for i := 0; i < slabCap(class)-5; i++ {
			b := al.Alloc(class, 7)
			h.Store(Payload(b), uint64(i))
			if i%7 == 0 {
				al.WriteHeader(b, Header{Status: Allocated, Class: class, Tag: 7, Epoch: committed})
				h.FlushRange(b, ClassWords(class))
				h.Fence()
				kept[b] = true
			}
			blocks = append(blocks, b)
		}
		h.Crash(nvm.CrashOptions{EvictFraction: evict, Seed: 9})

		al2 := New(h)
		al2.Recover(1, func(_ int, bi BlockInfo) bool { return bi.Header.Epoch == committed })
		if got := al2.LiveBlocks(); got != int64(len(kept)) {
			t.Fatalf("evict %.1f: %d live blocks, want the %d committed", evict, got, len(kept))
		}
		for _, b := range blocks {
			if st := al2.ReadHeader(b).Status; (st == Allocated) != kept[b] || (st != Free && !kept[b]) {
				t.Fatalf("evict %.1f: block %d recovered %v (committed %v)", evict, b, st, kept[b])
			}
		}
		// Every block but the committed ones comes back to the slab's class,
		// and the slab holds them all: no new slab is formatted.
		footprint := al2.FootprintBytes()
		seen := map[nvm.Addr]bool{}
		for i := 0; i < slabCap(class)-len(kept); i++ {
			b := al2.Alloc(class, 7)
			if kept[b] || seen[b] {
				t.Fatalf("evict %.1f: block %d handed out twice", evict, b)
			}
			seen[b] = true
		}
		if al2.FootprintBytes() != footprint {
			t.Fatalf("evict %.1f: recovery lost blocks of the fresh slab", evict)
		}
	}
}

// TestFreeBatchReturnsBlocksInAddressOrder: a batch free hands its blocks
// back to the next allocations lowest address first, however the batch was
// ordered.
func TestFreeBatchReturnsBlocksInAddressOrder(t *testing.T) {
	al := newAlloc(t)
	var blocks []nvm.Addr
	for i := 0; i < 200; i++ {
		blocks = append(blocks, al.Alloc(0, 0))
	}
	batch := slices.Clone(blocks[20:120])
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	al.FreeBatch(batch)
	if al.LiveBlocks() != 100 {
		t.Fatalf("%d live blocks after freeing 100 of 200", al.LiveBlocks())
	}
	var got []nvm.Addr
	for range batch {
		got = append(got, al.Alloc(0, 0))
	}
	if want := slices.Sorted(slices.Values(blocks[20:120])); !slices.Equal(got, want) {
		t.Fatalf("reallocated\n%v\nwant ascending\n%v", got, want)
	}
}
