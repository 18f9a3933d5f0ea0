package epoch

import (
	"cmp"
	"slices"

	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

// The retire journal makes retirement durable as a redo record instead of
// a write-back of every retired block's own header line. At the close of
// epoch x the flusher appends one record per block retired in x to
// sequential journal pages and hands each page to the durability engine as
// an ordinary extent of x, so the records are durable under x's own fences
// before the watermark reaches x. Recovery reads the pages back before its
// header judgment (recoverJournal). They are the only place a retirement's
// epoch is recorded: PRetire's DELETED mark stays in the volatile view,
// where Free's double-free check reads it, and should a stray write-back
// carry it to the media, recovery's DELETED branch asks these records
// whether that deletion persisted.
//
// A page is one XPLine of a journal slab (palloc.FormatJournalSlab):
//
//	word 0       pageMagic | x          the epoch whose retirements it holds
//	word 1..31   block addr | x's tag   one record each, 0 = none
//
// The per-record tag is what makes a page torn by reuse harmless: a page
// is rewritten a line at a time, so after a crash a still-valid old header
// can sit over lines of a newer epoch (or the reverse); records whose tag
// is not their header's are not that header's records and are ignored.
//
// Three invariants carry the crash argument (DESIGN.md "Retire journal"):
//
//  1. Recovery durably erases every page whose epoch is above the recovered
//     watermark P. The epoch it names was rolled back; left in place the
//     page would look valid as soon as a later watermark passed it.
//  2. A record is dropped only when the media header it judged has moved
//     on: K epochs after it was written its page is recycled, and a record
//     whose block still shows the retired incarnation on the media has the
//     block's header word checkpointed — flushed as it is in the view, which
//     is FREE or a later incarnation, never the retired one — in the
//     recycling epoch's commit. A block reallocated in the meantime, its
//     new creation epoch durable, needs nothing: the creation flush already
//     replaced the header, and the record, older than that creation,
//     judges nothing any more.
//  3. A recycled page is rewritten only from the next task on, after the
//     fence of the commit that carried its checkpoints.
const (
	// JournalK is the number of epochs a journal page is kept before it is
	// recycled. Longer costs journal space (K+1 epochs of pages are in use
	// at once) and buys checkpoint flushes that never happen, because the
	// LIFO free pool has reallocated the block by then. A constant, not a
	// knob, and part of the heap format — recovery relies on a page K
	// epochs below the watermark having been recycled, so a heap may be
	// recovered with a larger K than wrote it, never a smaller one. It is
	// exported so crash tests can size their epoch horizons.
	JournalK = 3

	pageWords   = nvm.XPLineWords
	pageRecords = pageWords - 1

	pageMagic     = uint64(0x4a52) << 48 // "JR"
	pageMagicMask = uint64(0xffff) << 48

	recTagBits = 24
	recTagMask = uint64(1)<<recTagBits - 1
)

// journalPage is one written page awaiting recycling.
type journalPage struct {
	addr  nvm.Addr
	epoch uint64
}

// journal is the flusher's DRAM view of the journal slabs. Tasks are
// serialised, so it needs no lock; every slice is scratch that keeps its
// capacity from epoch to epoch.
type journal struct {
	free    []nvm.Addr    // pages writable now (a stack)
	cooling []nvm.Addr    // recycled by the last task: writable once its commit has fenced
	live    []journalPage // written pages, oldest first

	// The next task's recycling, planned by the task before it (planRecycle):
	// the pages it releases and the blocks whose headers it checkpoints.
	recycle     []nvm.Addr
	checkpoints []nvm.Addr
}

func packRecord(b nvm.Addr, x uint64) uint64 { return uint64(b)<<recTagBits | x&recTagMask }

// unpackRecord decodes a record word of a page of epoch x; ok is false for
// an empty slot or another epoch's record.
func unpackRecord(w, x uint64) (b nvm.Addr, ok bool) {
	return nvm.Addr(w >> recTagBits), w != 0 && w&recTagMask == x&recTagMask
}

// pushPages adds every page of a journal slab's area to the free stack,
// highest address first, so pages are taken in address order.
func (j *journal) pushPages(area nvm.Extent) {
	for i := area.Words/pageWords - 1; i >= 0; i-- {
		j.free = append(j.free, area.Addr+nvm.Addr(i*pageWords))
	}
}

// planRecycle is the journal's share of the task before x, run once that
// task's own commit is durable and its waiters are notified: it takes the
// pages written K epochs before x off the live list and decides which of
// their records x must checkpoint — every one the media has not superseded.
// The verdict is the one x would reach itself: the watermark does not move
// until x commits, and a header that reads superseded now — a later
// incarnation whose creation is durable — can only move further from the
// retired one. Planning ahead keeps the scan, a cache miss per record, off
// the path between an epoch's close and its durability.
func (s *System) planRecycle(x uint64) {
	j, h := &s.journal, s.heap
	p := s.persisted.Load()
	n := 0
	for ; n < len(j.live) && j.live[n].epoch+JournalK <= x; n++ {
		pg := j.live[n]
		for i := 1; i < pageWords; i++ {
			b, ok := unpackRecord(h.Load(pg.addr+nvm.Addr(i)), pg.epoch)
			if !ok {
				continue
			}
			if e := s.alloc.ReadHeader(b).Epoch; e > pg.epoch && e <= p {
				continue // reallocated, and that creation is durable
			}
			j.checkpoints = append(j.checkpoints, b)
		}
		j.recycle = append(j.recycle, pg.addr)
	}
	j.live = j.live[:copy(j.live, j.live[n:])]
}

// journalEpoch is the journal's share of runTask(x), between the engine's
// Begin and Commit: it recycles the pages written K epochs ago as the task
// before planned it (planRecycle), queuing the checkpoints, and writes x's
// retirements into fresh pages. Every extent goes to shard 0.
func (s *System) journalEpoch(x uint64, retire [][]nvm.Addr) (records, checkpoints int64) {
	j, h := &s.journal, s.heap
	j.free = append(j.free, j.cooling...)
	j.cooling = append(j.cooling[:0], j.recycle...)
	for _, b := range j.checkpoints {
		s.eng.LogWrite(0, nvm.Extent{Addr: b, Words: palloc.HeaderWords})
	}
	checkpoints = int64(len(j.checkpoints))
	j.recycle, j.checkpoints = j.recycle[:0], j.checkpoints[:0]

	var page nvm.Addr
	used := pageRecords
	seal := func() {
		if page.IsNil() {
			return
		}
		for i := used + 1; i < pageWords; i++ {
			h.Store(page+nvm.Addr(i), 0) // a reused page's old tail
		}
		s.eng.LogWrite(0, nvm.Extent{Addr: page, Words: pageWords})
	}
	for _, blocks := range retire {
		for _, b := range blocks {
			if used == pageRecords {
				seal()
				if len(j.free) == 0 {
					j.pushPages(s.alloc.FormatJournalSlab())
				}
				page = j.free[len(j.free)-1]
				j.free = j.free[:len(j.free)-1]
				j.live = append(j.live, journalPage{addr: page, epoch: x})
				h.Store(page, pageMagic|x)
				used = 0
			}
			used++
			h.Store(page+nvm.Addr(used), packRecord(b, x))
			records++
		}
	}
	seal()
	return records, checkpoints
}

// journalRec is one journaled retirement: block b was retired in epoch d.
type journalRec struct {
	b nvm.Addr
	d uint64
}

// journalIndex is recovery's read-only view of the journal: the newest
// journaled retirement of each block, sorted by block address.
type journalIndex []journalRec

// retiredAt reports the newest journaled retirement of b. Recovery's scan
// visits blocks in ascending address order within a worker, so each worker
// walks the index with its own cursor instead of searching it: one compare
// per block, nothing when the index is empty.
func (ix journalIndex) retiredAt(cur *int, b nvm.Addr) (d uint64, ok bool) {
	for *cur < len(ix) && ix[*cur].b < b {
		*cur++
	}
	if *cur < len(ix) && ix[*cur].b == b {
		return ix[*cur].d, true
	}
	return 0, false
}

// recoverJournal reads the journal the crash left on the media, after the
// engine's repair has fixed the watermark p and before the header scan.
// Pages of the K epochs up to p contribute their records to the returned
// index and stay as they are: once the scan's reclaims are durable they
// judge nothing, and they are overwritten when their turn comes. Older
// pages already judge nothing and are not read — the task that moved the
// watermark K epochs past a page recycled it, its checkpoints durable with
// that watermark (or an earlier recovery was done with it) — which keeps
// the index to K epochs of records however many pages the slabs hold.
// Pages of later epochs are erased — the header word zeroed in the view, the extent
// returned for the caller to flush under recovery's trailing fence. Every
// page ends up free: nothing the recovered system has yet to write depends
// on any of them.
func (s *System) recoverJournal(p uint64) (ix journalIndex, erase []nvm.Extent) {
	h := s.heap
	for _, area := range s.alloc.JournalSlabs() {
		s.journal.pushPages(area)
		for i := 0; i < area.Words/pageWords; i++ {
			page := area.Addr + nvm.Addr(i*pageWords)
			hdr := h.Load(page)
			if hdr&pageMagicMask != pageMagic {
				continue
			}
			x := hdr &^ pageMagicMask
			if x > p {
				h.Store(page, 0)
				erase = append(erase, nvm.Extent{Addr: page, Words: 1})
				continue
			}
			if x+JournalK <= p {
				continue
			}
			s.journalPagesRead++
			for r := 1; r < pageWords; r++ {
				if b, ok := unpackRecord(h.Load(page+nvm.Addr(r)), x); ok {
					ix = append(ix, journalRec{b: b, d: x})
				}
			}
		}
	}
	// Sort by block, newest retirement first, and keep that one per block.
	slices.SortFunc(ix, func(a, b journalRec) int {
		if c := cmp.Compare(a.b, b.b); c != 0 {
			return c
		}
		return cmp.Compare(b.d, a.d)
	})
	ix = slices.CompactFunc(ix, func(a, b journalRec) bool { return a.b == b.b })
	return ix, erase
}
