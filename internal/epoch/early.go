package epoch

import (
	"math"
	"time"

	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

// Early write-back of the open epoch.
//
// An epoch is durable once everything tracked in it has been written back
// and the watermark has moved past it, and a durable-ack waits for both. If
// the whole write-back ran after the close, the close-time flush would grow
// with the epoch's work. Instead, once the open epoch's backlog would cost
// the closing task more than EpochLength/earlyBudgetDiv, the flusher
// goroutine writes that backlog back ahead of the close, with no fence
// (earlyPass), and the task that closes the epoch flushes only what was
// tracked after the pass. It still journals, fences and moves the watermark
// as it always did.
//
// To recovery an early write-back is an eviction, which it already
// tolerates: the blocks it carries to the media have a header epoch above
// any watermark that can be recovered until their epoch's own commit lands
// (Sec. 5.2: header epoch > P, reclaim). What the engineering has to keep is
// that the closing flush stays complete:
//
//  1. Every store to a tracked block after an early pass has written it back
//     is followed, in the same epoch, by a tracking of the block (PTrack)
//     published after the store: a structure's same-epoch in-place update
//     re-tracks the block it updated.
//  2. A pass moves a buffer's early index only past the entries it wrote
//     back, so the close flushes every entry from there on.
//
// The trigger is event-driven: the flusher publishes a per-worker backlog
// threshold (earlyAt) from the per-block cost it measured on its own last
// write-backs, and a worker whose published backlog reaches it rings the
// flusher's doorbell at EndOp. Manual mode has no flusher goroutine; its
// caller runs the step explicitly (FlushEarly).
const (
	// earlyBudgetDiv sets the close-time flush budget: EpochLength/8.
	earlyBudgetDiv = 8
	// costSample is the fewest blocks a write-back must carry for its
	// duration to update the per-block cost estimate: below it the fixed
	// costs of a flush (fences, the watermark) dominate.
	costSample = 64
	// neverEarly is earlyAt before the flusher has measured a write-back,
	// and always in Manual mode.
	neverEarly = math.MaxInt64
)

// earlyMark is one buffer an early pass wrote back up to entry to.
type earlyMark struct {
	buf *opBuf
	to  int64
}

// FlushEarly is the early write-back step taken on demand — in Manual mode,
// which has no flusher goroutine to take it when the backlog is due, and by
// tests that force it in either mode: it writes back every block the open
// epoch has tracked in completed operations so far, with no fence, so that
// the task closing the epoch flushes only what is tracked after it. It
// does nothing on an eADR heap. Like Sync it must not be called between
// BeginOp and EndOp on the calling thread: a task it waits for may be
// waiting for that operation.
func (s *System) FlushEarly() { s.earlyPass(true) }

// earlyPass writes back the open epoch's published backlog: all of it when
// forced (FlushEarly), otherwise only once some worker's share has reached
// earlyAt — the doorbell also rings for closed epochs, and a worker that
// keeps ringing while a pass runs finds its backlog gone when the next
// one looks.
func (s *System) earlyPass(force bool) {
	s.taskMu.Lock()
	defer s.taskMu.Unlock()
	if s.eadr() {
		return
	}
	slot := int(s.global.Load() % numSlots)
	n := int(s.nWorkers.Load())
	if !force {
		at, due := s.earlyAt.Load(), false
		for i := 0; i < n && !due; i++ {
			buf := &s.workers[i].bufs[slot]
			due = buf.published.Load()-buf.early.Load() >= at
		}
		if !due {
			return
		}
	}

	t0 := time.Now()
	exts, marks := s.earlyExts[:0], s.earlyMarks[:0]
	for i := 0; i < n; i++ {
		buf := &s.workers[i].bufs[slot]
		lo, hi := buf.early.Load(), buf.published.Load()
		if lo == hi {
			continue
		}
		for _, b := range (*buf.arr.Load())[lo:hi] {
			exts = append(exts, nvm.Extent{Addr: b, Words: palloc.ClassWords(s.alloc.ReadHeader(b).Class)})
		}
		marks = append(marks, earlyMark{buf: buf, to: hi})
	}
	s.earlyExts, s.earlyMarks = exts, marks
	if len(exts) == 0 {
		return
	}
	s.heap.FlushExtents(exts)
	for _, m := range marks {
		m.buf.early.Store(m.to)
	}
	s.noteCost(time.Since(t0), len(exts))

	f := int64(len(exts))
	s.advSeq.Add(1)
	s.flushed.Add(f)
	s.earlyFlushed.Add(f)
	s.advSeq.Add(1)
}

// noteCost takes the per-block write-back cost from one write-back of
// blocks blocks that took d, and republishes the early threshold: the
// backlog share at which the workers that tracked in the last closed epoch,
// if they all held as much, would cost the closing task the budget. Manual
// mode has no doorbell to ring, and its threshold stays at never. The
// caller holds taskMu.
func (s *System) noteCost(d time.Duration, blocks int) {
	if s.cfg.Manual || blocks < costSample {
		return
	}
	cost := max(d.Nanoseconds()/int64(blocks), 1)
	budget := int64(s.cfg.EpochLength / earlyBudgetDiv)
	s.earlyAt.Store(max(budget/cost/int64(max(s.trackers, 1)), 1))
}
