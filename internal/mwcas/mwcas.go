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
	"sort"

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
	const maxRetries = 64
	return m.tm.Run(nil, maxRetries, nil, func(tx *htm.Tx) {
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
}

// NewDesc carves nThreads descriptor blocks out of the heap using the
// given allocator-owned region base. Descriptors are permanent: they are
// recycled, never freed, exactly as high-performance PMwCAS
// implementations pool them.
func NewDesc(h *nvm.Heap, persist bool, nThreads int, alloc func(words int) nvm.Addr) *Desc {
	d := &Desc{h: h, persist: persist, descs: make([]nvm.Addr, nThreads)}
	for i := range d.descs {
		a := alloc(descWords)
		if uint64(a) >= 1<<31 {
			panic("mwcas: descriptor address exceeds 31-bit encoding")
		}
		d.descs[i] = a
		h.Store(a+descSeqOff, 0)
		h.Store(a+descStatusOff, 0)
	}
	return d
}

// Persistent reports whether the engine runs the PMwCAS protocol.
func (d *Desc) Persistent() bool { return d.persist }

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

	ptr := markedPtr(desc, seq)

	// Phase 1: install the descriptor into every target, in address
	// order, helping any conflicting operation we encounter.
	status := stSucceeded
install:
	for _, e := range es {
		for {
			if h.CompareAndSwap(e.Addr, e.Old, ptr) {
				d.flush(e.Addr)
				break
			}
			cur := h.Load(e.Addr)
			switch {
			case cur == ptr:
				break // a helper installed for us
			case isMarked(cur):
				d.help(cur)
				continue
			case cur != e.Old:
				status = stFailed
				break install
			default:
				continue // transient CAS failure; retry
			}
			break
		}
	}

	// Phase 2: decide.
	h.CompareAndSwap(desc+descStatusOff, seq<<8|stUndecided, seq<<8|status)
	d.flush(desc + descStatusOff)
	final := h.Load(desc+descStatusOff) & 0xff

	// Phase 3: replace descriptor pointers with final values.
	for _, e := range es {
		want := e.Old
		if final == stSucceeded {
			want = e.New
		}
		if h.CompareAndSwap(e.Addr, ptr, want) {
			d.flush(e.Addr)
		}
	}
	return final == stSucceeded
}

// help completes (or unwinds) the operation owning the marked pointer v.
// It is called by threads that find v installed in a word they need.
func (d *Desc) help(v uint64) {
	desc, seq := decodePtr(v)
	h := d.h
	// Validate that the descriptor still belongs to this operation; the
	// double-read of the sequence brackets the entry reads.
	if h.Load(desc+descSeqOff)&0xffffffff != seq {
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
	if h.Load(desc+descSeqOff)&0xffffffff != seq {
		return
	}
	fullSeq := h.Load(desc + descSeqOff)
	ptr := markedPtr(desc, seq)

	// Only run phase 1 while the operation is still undecided. A decided
	// descriptor's pointer can linger in a word (a stalled helper may
	// reinstall it after the decision — the protocol's accepted ABA), and
	// re-running installation for it would try to claim words now owned
	// by live operations: two such descriptors each holding a word the
	// other's entry list names would make help() recurse between them
	// forever. A decided operation only needs its pointers removed.
	if st := h.Load(desc + descStatusOff); st>>8 == fullSeq && st&0xff == stUndecided {
		status := stSucceeded
	install:
		for _, e := range es {
			for {
				if h.Load(desc+descSeqOff) != fullSeq {
					return // owner moved on; nothing left to help
				}
				if h.CompareAndSwap(e.Addr, e.Old, ptr) {
					d.flush(e.Addr)
					break
				}
				cur := h.Load(e.Addr)
				switch {
				case cur == ptr:
					break
				case isMarked(cur):
					d.help(cur)
					continue
				case cur != e.Old:
					status = stFailed
					break install
				default:
					continue
				}
				break
			}
		}
		h.CompareAndSwap(desc+descStatusOff, fullSeq<<8|stUndecided, fullSeq<<8|status)
		d.flush(desc + descStatusOff)
	}
	st := h.Load(desc + descStatusOff)
	if st>>8 != fullSeq {
		return
	}
	final := st & 0xff
	for _, e := range es {
		want := e.Old
		if final == stSucceeded {
			want = e.New
		}
		if h.CompareAndSwap(e.Addr, ptr, want) {
			d.flush(e.Addr)
		}
	}
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
