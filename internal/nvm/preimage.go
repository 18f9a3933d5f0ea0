package nvm

import (
	"fmt"
	"sync"
)

// pageLines is the number of lines in a page.
const pageLines = pageWords / LineWords

// preImages is one page's lock and the pre-images of its dirty lines (the
// package doc has the protocol). Only lines whose pre-image is not all
// zero keep one. They are packed in 72-byte slots, in no particular
// order, and index (1 KiB a page) finds a line's slot, so every operation
// is one lookup: no hashing and no probing.
//
// The slots grow by doubling up to a whole page's worth, and when the
// page's pre-images all drop they shrink to what the most held since they
// last all dropped needs, if that is a quarter of their length or less.
// So their memory follows the page's dirty set from one write-back of the
// page to the next, not every line that was ever dirty, and a page
// dirtied and written back over and over by about the same number of
// lines allocates nothing. The slots hold no pointers: the collector
// never scans them.
type preImages struct {
	mu    sync.Mutex
	index [pageLines]uint16 // by line within the page: its slot + 1, or 0
	slots []preImage
	peak  int // the most held since they last all dropped
}

// preImage is one line's persisted contents, saved while it is dirty.
type preImage struct {
	words [LineWords]uint64
	line  uint16 // within the page
}

// minPreSlots is the length the slots start at and never shrink below.
const minPreSlots = 8

// pageLine is line l's index within its page.
func pageLine(l uint64) uint64 { return l % pageLines }

// find returns the pre-image of line i of the page, nil if it holds none.
func (t *preImages) find(i uint64) *[LineWords]uint64 {
	if s := t.index[i]; s != 0 {
		return &t.slots[s-1].words
	}
	return nil
}

// put saves w as the pre-image of line i of the page. A line saves one
// only while it is clean, and a clean line holds none: if line i holds one
// already, the lock protocol broke, and put panics.
func (t *preImages) put(i uint64, w *[LineWords]uint64) {
	if t.index[i] != 0 {
		panic(fmt.Sprintf("nvm: line %d of its page saves a pre-image while it holds one", i))
	}
	if len(t.slots) == cap(t.slots) {
		t.resize(max(minPreSlots, 2*cap(t.slots)))
	}
	t.slots = append(t.slots, preImage{words: *w, line: uint16(i)})
	t.index[i] = uint16(len(t.slots))
	t.peak = max(t.peak, len(t.slots))
}

// drop removes the pre-image of line i of the page, moving the last slot
// into its place, and reports whether the line held one.
func (t *preImages) drop(i uint64) bool {
	s := t.index[i]
	if s == 0 {
		return false
	}
	t.index[i] = 0
	last := len(t.slots) - 1
	if int(s-1) != last {
		t.slots[s-1] = t.slots[last]
		t.index[t.slots[s-1].line] = s
	}
	t.slots = t.slots[:last]
	if last == 0 {
		fit := minPreSlots
		for fit < t.peak {
			fit *= 2
		}
		if cap(t.slots) >= 4*fit {
			t.resize(fit)
		}
		t.peak = 0
	}
	return true
}

// resize moves the slots into new ones of capacity n, never more than a
// page's worth.
func (t *preImages) resize(n int) {
	t.slots = append(make([]preImage, 0, min(n, pageLines)), t.slots...)
}
