// Package mwcas provides the multi-word atomic-update kit behind the
// paper's Fig. 4 and its skiplist case study (Sec. 4.2):
//
//   - MwWR — unsynchronized, non-persistent multi-word writes (baseline);
//   - HTMMwCAS — a multi-word compare-and-swap built from one hardware
//     transaction (run as a slow-path session after repeated aborts), the
//     paper's replacement for descriptor-based protocols;
//   - Desc — the descriptor-based MwCAS of Wang et al. (ICDE'18), with
//     helping; in persistent mode (PMwCAS) every step of the protocol is
//     flushed so an operation interrupted by a crash can roll forward or
//     backward — the heavy persist traffic this generates is precisely
//     the overhead the paper measures.
//
// All variants operate on 8-byte words of a simulated NVM heap. Word
// values must leave bit 63 clear: descriptor-based variants use it to mark
// in-flight words that point at a descriptor.
package mwcas

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

// Entry describes one word of a multi-word update.
type Entry struct {
	Addr nvm.Addr
	Old  uint64
	New  uint64
}

// MwWR performs the updates with no synchronization and no persistence —
// the Fig. 4 baseline.
func MwWR(h *nvm.Heap, entries []Entry) {
	for _, e := range entries {
		h.Store(e.Addr, e.New)
	}
}

// HTMMwCAS performs multi-word compare-and-swap inside one hardware
// transaction.
type HTMMwCAS struct {
	h  *nvm.Heap
	tm *htm.TM
}

// NewHTMMwCAS creates an HTM-based MwCAS over heap h.
func NewHTMMwCAS(h *nvm.Heap, tm *htm.TM) *HTMMwCAS {
	return &HTMMwCAS{h: h, tm: tm}
}

const htmMwFailCode uint8 = 0xC5

// Apply atomically replaces every entry's word if all of them still hold
// their Old values; it reports whether the swap happened. The one body
// runs as a transaction or, past the retry budget, as a session; either
// way a mismatch aborts it with the fail code.
func (m *HTMMwCAS) Apply(entries []Entry) bool {
	return m.tm.Run(nil, nil, func(tx *htm.Tx) {
		for _, e := range entries {
			if tx.LoadAddr(m.h, e.Addr) != e.Old {
				tx.Abort(htmMwFailCode)
			}
		}
		for _, e := range entries {
			tx.StoreAddr(m.h, e.Addr, e.New)
		}
	}).Committed
}

// Read returns the current value of a word, which for the HTM variant is
// a plain load (no descriptors are ever installed).
func (m *HTMMwCAS) Read(a nvm.Addr) uint64 { return m.h.Load(a) }

// --- Descriptor-based MwCAS / PMwCAS ---------------------------------------

// Desc states, stored in the low bits of the descriptor's status word.
const (
	stUndecided uint64 = iota
	stSucceeded
	stFailed
)

const (
	descMark = uint64(1) << 63
	// MaxEntries bounds the words per descriptor-based operation. It is
	// sized for skiplist deletions, which touch two words per level.
	MaxEntries = 48

	descSeqOff    = 0 // sequence number: odd while being (re)filled
	descStatusOff = 1 // seq<<8 | state
	descCountOff  = 2
	descEntryOff  = 3 // count * (addr, old, new)
	descWords     = descEntryOff + MaxEntries*3
)

// markedPtr encodes a descriptor reference installed into a target word:
// bit 63 set, descriptor heap address in bits 62..32, low 32 bits of the
// descriptor's sequence number below. The sequence lets helpers detect a
// recycled descriptor.
func markedPtr(desc nvm.Addr, seq uint64) uint64 {
	return descMark | uint64(desc)<<32 | (seq & 0xffffffff)
}

func isMarked(v uint64) bool { return v&descMark != 0 }

func decodePtr(v uint64) (desc nvm.Addr, seq uint64) {
	return nvm.Addr(v >> 32 & 0x7fffffff), v & 0xffffffff
}

// Desc is a descriptor-based multi-word CAS engine. With Persist enabled
// it is PMwCAS: descriptor contents, installations, the status change, and
// the final swaps are all flushed, making the operation recoverable (and
// expensive). Each participating thread owns one descriptor slot, passed
// as tid to Apply.
type Desc struct {
	h       *nvm.Heap
	persist bool
	descs   []nvm.Addr // per-thread descriptor blocks
	slot    map[nvm.Addr]int
	// installing[i] counts the threads inside an install window of
	// descs[i] (see install); phase 3 waits for it to drain.
	installing []atomic.Int64
}

// NewDesc carves nThreads descriptor blocks out of the heap using the
// given allocator-owned region base. Descriptors are permanent: they are
// recycled, never freed, exactly as high-performance PMwCAS
// implementations pool them.
func NewDesc(h *nvm.Heap, persist bool, nThreads int, alloc func(words int) nvm.Addr) *Desc {
	d := &Desc{h: h, persist: persist, descs: make([]nvm.Addr, nThreads),
		slot: make(map[nvm.Addr]int, nThreads), installing: make([]atomic.Int64, nThreads)}
	for i := range d.descs {
		a := alloc(descWords)
		if uint64(a) >= 1<<31 {
			panic("mwcas: descriptor address exceeds 31-bit encoding")
		}
		d.descs[i] = a
		d.slot[a] = i
		h.Store(a+descSeqOff, 0)
		h.Store(a+descStatusOff, 0)
	}
	return d
}

func (d *Desc) flush(a nvm.Addr) {
	if d.persist {
		d.h.Persist(a)
	}
}

// Apply performs the multi-word CAS from thread slot tid. Entries are
// sorted by address internally (the canonical install order). It reports
// whether all words were swapped.
func (d *Desc) Apply(tid int, entries []Entry) bool {
	if len(entries) == 0 {
		return true
	}
	if len(entries) > MaxEntries {
		panic(fmt.Sprintf("mwcas: %d entries exceeds MaxEntries", len(entries)))
	}
	es := make([]Entry, len(entries))
	copy(es, entries)
	sort.Slice(es, func(i, j int) bool { return es[i].Addr < es[j].Addr })
	for i := 1; i < len(es); i++ {
		if es[i].Addr == es[i-1].Addr {
			panic("mwcas: duplicate target address")
		}
	}

	desc := d.descs[tid]
	h := d.h

	// Refill the descriptor: odd sequence while mutating, then publish
	// the new even sequence. PMwCAS persists the descriptor before any
	// install so a crash can replay or roll back the operation.
	seq := h.Load(desc+descSeqOff) + 1
	h.Store(desc+descSeqOff, seq) // odd: invalid
	h.Store(desc+descCountOff, uint64(len(es)))
	for i, e := range es {
		base := desc + descEntryOff + nvm.Addr(i*3)
		h.Store(base, uint64(e.Addr))
		h.Store(base+1, e.Old)
		h.Store(base+2, e.New)
	}
	seq++
	h.Store(desc+descStatusOff, seq<<8|stUndecided)
	h.Store(desc+descSeqOff, seq) // even: valid
	if d.persist {
		h.FlushRange(desc, descWords)
		h.Fence()
	}

	// Phase 1: install the descriptor into every target, in address
	// order, helping any conflicting operation we encounter.
	installing := &d.installing[tid]
	status := d.install(desc, seq, installing, es)

	// Phase 2: decide.
	h.CompareAndSwap(desc+descStatusOff, seq<<8|stUndecided, seq<<8|status)
	d.flush(desc + descStatusOff)
	final := h.Load(desc+descStatusOff) & 0xff

	// Phase 3: replace descriptor pointers with final values.
	d.resolve(markedPtr(desc, seq), final, installing, es)
	return final == stSucceeded
}

// install is phase 1 of the operation that descriptor desc holds at
// sequence seq, run by its owner and its helpers alike. It swings each
// target from its old value to the descriptor pointer, in address order,
// helping any operation it finds in the way, and returns the status to
// propose: stFailed once a target holds neither its old value nor the
// pointer. It stops as soon as the operation is decided (or the
// descriptor recycled); the caller's decision CAS then fails.
//
// Every install CAS runs inside a window counted in installing, and only
// after a status read inside the window found the operation undecided;
// phase 3 starts only once no window is open (resolve). So no install
// lands after phase 3 began: a thread that stalled between its status
// read and its CAS used to put the pointer back into a target whose old
// value had come back after phase 3, and Read then resolved the target to
// the stale new value, or, once the owner had recycled the descriptor,
// spun on the pointer forever. A window never waits, so the wait in
// resolve always ends.
func (d *Desc) install(desc nvm.Addr, seq uint64, installing *atomic.Int64, es []Entry) uint64 {
	h := d.h
	ptr := markedPtr(desc, seq)
	for _, e := range es {
		for {
			installing.Add(1)
			if h.Load(desc+descStatusOff) != seq<<8|stUndecided {
				installing.Add(-1)
				return stSucceeded
			}
			swapped := h.CompareAndSwap(e.Addr, e.Old, ptr)
			installing.Add(-1)
			if swapped {
				d.flush(e.Addr)
				break
			}
			cur := h.Load(e.Addr)
			if cur == ptr {
				break // a helper installed for us
			}
			if isMarked(cur) {
				d.help(cur)
				continue
			}
			if cur != e.Old {
				return stFailed
			}
			// transient CAS failure; retry
		}
	}
	return stSucceeded
}

// resolve is phase 3 of a decided operation: once no install window of
// its descriptor is open, it replaces the pointer ptr with each target's
// final value. A target that no longer holds ptr was resolved already.
func (d *Desc) resolve(ptr, final uint64, installing *atomic.Int64, es []Entry) {
	for installing.Load() != 0 {
		runtime.Gosched()
	}
	for _, e := range es {
		want := e.Old
		if final == stSucceeded {
			want = e.New
		}
		if d.h.CompareAndSwap(e.Addr, ptr, want) {
			d.flush(e.Addr)
		}
	}
}

// help completes (or unwinds) the operation owning the marked pointer v.
// It is called by threads that find v installed in a word they need.
func (d *Desc) help(v uint64) {
	desc, seq := decodePtr(v)
	i, ok := d.slot[desc]
	if !ok {
		return
	}
	h := d.h
	// Validate that the descriptor still belongs to this operation; the
	// double-read of the sequence brackets the entry reads, and the
	// sequence used from here on is the one both reads saw, so the
	// entries and the sequence belong to the same operation.
	fullSeq := h.Load(desc + descSeqOff)
	if fullSeq&0xffffffff != seq {
		return
	}
	count := h.Load(desc + descCountOff)
	if count > MaxEntries {
		return
	}
	es := make([]Entry, count)
	for i := range es {
		base := desc + descEntryOff + nvm.Addr(i*3)
		es[i] = Entry{Addr: nvm.Addr(h.Load(base)), Old: h.Load(base + 1), New: h.Load(base + 2)}
	}
	if h.Load(desc+descSeqOff) != fullSeq {
		return
	}
	installing := &d.installing[i]

	// Only run phase 1 while the operation is still undecided. A decided
	// operation only needs its pointers removed: re-running installation
	// for it would try to claim words now owned by live operations.
	if h.Load(desc+descStatusOff) == fullSeq<<8|stUndecided {
		status := d.install(desc, fullSeq, installing, es)
		h.CompareAndSwap(desc+descStatusOff, fullSeq<<8|stUndecided, fullSeq<<8|status)
		d.flush(desc + descStatusOff)
	}
	st := h.Load(desc + descStatusOff)
	if st>>8 != fullSeq {
		return
	}
	d.resolve(markedPtr(desc, seq), st&0xff, installing, es)
}

// Read returns the logical value of a word, helping any in-flight
// operation that has a descriptor installed there.
func (d *Desc) Read(a nvm.Addr) uint64 {
	for {
		v := d.h.Load(a)
		if !isMarked(v) {
			return v
		}
		d.help(v)
	}
}

// RecoverWord resolves a word after a crash: if it holds a descriptor
// pointer left by an interrupted PMwCAS, the operation is rolled forward
// (status SUCCEEDED persisted before the crash) or backward (otherwise)
// using the descriptor's persisted contents, and the resolution is made
// durable. Must run single-threaded, before normal operation resumes.
// It returns the word's logical value.
func RecoverWord(h *nvm.Heap, a nvm.Addr) uint64 {
	v := h.Load(a)
	if !isMarked(v) {
		return v
	}
	desc, seq := decodePtr(v)
	st := h.Load(desc + descStatusOff)
	final := stFailed // an undecided operation rolls back
	if st>>8 == h.Load(desc+descSeqOff) && st>>8&0xffffffff == seq && st&0xff == stSucceeded {
		final = stSucceeded
	}
	count := h.Load(desc + descCountOff)
	res := v
	for i := uint64(0); i < count && i < MaxEntries; i++ {
		base := desc + descEntryOff + nvm.Addr(i*3)
		if nvm.Addr(h.Load(base)) != a {
			continue
		}
		if final == stSucceeded {
			res = h.Load(base + 2)
		} else {
			res = h.Load(base + 1)
		}
		break
	}
	if isMarked(res) {
		// The descriptor was recycled past recognition; the old value is
		// unrecoverable only if the install persisted without its
		// descriptor, which the protocol's ordering forbids.
		panic("mwcas: unresolvable descriptor pointer during recovery")
	}
	h.Store(a, res)
	h.Persist(a)
	return res
}
