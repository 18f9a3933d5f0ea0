package palloc_test

import (
	"testing"

	"bdhtm/internal/epoch"
	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

// checkBlockWords fails unless BlockWords agrees with the header's class
// for every non-FREE block, and the blocks cover every size class.
func checkBlockWords(t *testing.T, when string, al *palloc.Allocator) {
	t.Helper()
	classes := map[int]int{}
	al.Scan(func(bi palloc.BlockInfo) {
		if got, want := al.BlockWords(bi.Addr), palloc.ClassWords(al.ReadHeader(bi.Addr).Class); got != want {
			t.Fatalf("%s: BlockWords(%d) = %d, its header's class has %d words", when, bi.Addr, got, want)
		}
		classes[bi.Header.Class]++
	})
	if len(classes) != palloc.NumClasses() {
		t.Fatalf("%s: blocks of %d classes, want every one of %d", when, len(classes), palloc.NumClasses())
	}
}

// fillEveryClass allocates, in every class, enough blocks to format two
// slabs of it, with a journal slab formatted between the classes' first
// and second slabs, and makes the whole heap durable. Classes go in
// ascending order, or descending with reverse, so that a reformat of the
// same heap gives most slabs another class.
func fillEveryClass(al *palloc.Allocator, reverse bool) {
	h := al.Heap()
	for round := range 2 {
		for i := range palloc.NumClasses() {
			c := i
			if reverse {
				c = palloc.NumClasses() - 1 - i
			}
			for range (4096-nvm.LineWords)/palloc.ClassWords(c) + 1 - round {
				b := al.Alloc(c, 1)
				al.WriteHeader(b, palloc.Header{Status: palloc.Allocated, Class: c, Tag: 1, Epoch: 1})
			}
		}
		if round == 0 {
			al.FormatJournalSlab()
		}
	}
	h.FlushRange(0, h.Words())
	h.Fence()
}

// TestBlockWordsMatchesHeaders: the DRAM slab table that sizes the
// flusher's extents agrees with every block's header after formatting,
// after Recover on a crashed heap holding a journal slab, and after
// epoch.New reformats a used heap.
func TestBlockWordsMatchesHeaders(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 20})
	al := palloc.New(h)
	fillEveryClass(al, false)
	checkBlockWords(t, "after formatting", al)

	h.Crash(nvm.CrashOptions{})
	rec := palloc.New(h)
	if len(rec.JournalSlabs()) != 1 {
		t.Fatalf("%d journal slabs after the crash, want 1", len(rec.JournalSlabs()))
	}
	rec.Recover(2, func(int, palloc.BlockInfo) bool { return true })
	checkBlockWords(t, "after Recover", rec)

	sys := epoch.New(h, epoch.Config{Manual: true})
	defer sys.Stop()
	fillEveryClass(sys.Allocator(), true)
	checkBlockWords(t, "after epoch.New", sys.Allocator())
}
