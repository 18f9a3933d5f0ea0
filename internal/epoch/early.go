package epoch

import (
	"math"
	"runtime"
	"slices"
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
// goroutine writes ahead of the close, with no fence (earlyPass), what it
// already knows of the commit: the blocks tracked so far, the retirements
// published so far in whole journal pages, and the checkpoints the task
// before planned for this commit. The task that closes the epoch carries
// only the residual — the blocks tracked after the pass, the last partial
// page — and fences and moves the watermark as it always did.
//
// To recovery an early write-back is an eviction, which it already
// tolerates: the blocks and pages it carries to the media have an epoch
// above any watermark that can be recovered until their epoch's own commit
// lands (Sec. 5.2: header epoch > P, reclaim; a journal page above P is
// erased), and a checkpoint is the header as it stands in the view, which
// is never the retired incarnation. The journal's side of it is three
// invariants of journal.go. What the engineering has to keep for blocks is
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
// write-backs — the median of the last costWindow, so that one write-back
// the flusher spent descheduled does not move it — and a worker whose
// published backlog reaches it rings the flusher's doorbell at EndOp. The
// budget, EpochLength/32, is the knee of the measured curve: tighter, the
// early passes start writing back hot blocks that a same-epoch update
// dirties again, and write_amp grows (EXPERIMENTS "Almost empty close").
// Manual mode has no flusher goroutine; its caller runs the step
// explicitly (FlushEarly).
//
// The trigger is also the flow control. A worker whose published backlog
// reaches twice the threshold has outrun the flusher by a whole pass, and it
// waits after EndOp, holding no epoch, until a pass or the close has taken
// the backlog (awaitEarlyPass). Without that, a worker faster than the
// flusher grows the open epoch without bound: the advance waits for the last
// close, the epoch runs that much longer, and its close is longer again.
const (
	// earlyBudgetDiv sets the close-time flush budget: EpochLength/32.
	earlyBudgetDiv = 32
	// costSample is the fewest blocks a write-back must carry for its
	// duration to update the per-block cost estimate: below it the fixed
	// costs of a flush (fences, the watermark) dominate.
	costSample = 64
	// costWindow is how many timed write-backs the per-block cost estimate
	// is the median of.
	costWindow = 5
	// neverEarly is earlyAt before the flusher has measured a write-back,
	// and always in Manual mode.
	neverEarly = math.MaxInt64
)

// earlyMark is one list an early pass took up to entry to.
type earlyMark struct {
	l  *pubList
	to int64
}

// FlushEarly is the early write-back step taken on demand — in Manual mode,
// which has no flusher goroutine to take it when the backlog is due, and by
// tests that force it in either mode: it writes back every block the open
// epoch has tracked in completed operations so far, the whole journal pages
// their retirements fill and the checkpoints planned for the epoch's
// commit, with no fence, so that the task closing the epoch carries only
// the rest. It does nothing on an eADR heap. Like Sync it must not be called
// between BeginOp and EndOp on the calling thread: a task it waits for may
// be waiting for that operation.
func (s *System) FlushEarly() { s.earlyPass(true) }

// earlyPass writes back the open epoch's published backlog: all of it when
// forced (FlushEarly), otherwise only once some worker's share of tracked
// blocks has reached earlyAt — the doorbell also rings for closed epochs,
// and a worker that keeps ringing while a pass runs finds its backlog gone
// when the next one looks. All of it goes in one FlushExtents.
func (s *System) earlyPass(force bool) {
	s.taskMu.Lock()
	defer s.taskMu.Unlock()
	if s.eadr() {
		return
	}
	x := s.global.Load()
	slot := int(x % numSlots)
	n := int(s.nWorkers.Load())
	if !force {
		at, due := s.earlyAt.Load(), false
		for i := 0; i < n && !due; i++ {
			due = s.workers[i].bufs[slot].persist.backlog() >= at
		}
		if !due {
			return
		}
	}

	t0 := time.Now()
	exts, recs, marks := s.earlyExts[:0], s.earlyRecs[:0], s.earlyMarks[:0]
	for i := 0; i < n; i++ {
		l := &s.workers[i].bufs[slot].persist
		lo, hi := l.early.Load(), l.published.Load()
		if lo == hi {
			continue
		}
		for _, b := range (*l.arr.Load())[lo:hi] {
			exts = append(exts, nvm.Extent{Addr: b, Words: s.alloc.BlockWords(b)})
		}
		marks = append(marks, earlyMark{l: l, to: hi})
	}
	blocks := len(exts)

	// The published retirements, as many as fill whole pages: the close
	// journals the rest and seals the last page. Published counts only
	// grow, so the second walk finds at least what the first counted.
	var backlog int64
	for i := 0; i < n; i++ {
		backlog += s.workers[i].bufs[slot].retire.backlog()
	}
	whole := int(backlog - backlog%pageRecords)
	for i := 0; i < n && len(recs) < whole; i++ {
		l := &s.workers[i].bufs[slot].retire
		lo := l.early.Load()
		hi := min(l.published.Load(), lo+int64(whole-len(recs)))
		if lo == hi {
			continue
		}
		recs = append(recs, (*l.arr.Load())[lo:hi]...)
		marks = append(marks, earlyMark{l: l, to: hi})
	}
	j := &s.journal
	exts = s.writePages(x, recs, &j.early, exts)
	var checkpoints int
	if !j.checkpointed {
		for _, b := range j.checkpoints {
			exts = append(exts, nvm.Extent{Addr: b, Words: palloc.HeaderWords})
		}
		checkpoints, j.checkpointed = len(j.checkpoints), true
	}
	s.earlyExts, s.earlyRecs, s.earlyMarks = exts, recs, marks
	if len(exts) == 0 {
		return
	}
	s.heap.FlushExtents(exts)
	for _, m := range marks {
		m.l.early.Store(m.to)
	}
	s.noteCost(time.Since(t0), blocks)

	s.advSeq.Add(1)
	s.flushed.Add(int64(blocks))
	s.earlyFlushed.Add(int64(blocks))
	s.journalRecords.Add(int64(len(recs)))
	s.journalEarlyRecords.Add(int64(len(recs)))
	s.journalCheckpoints.Add(int64(checkpoints))
	s.advSeq.Add(1)
}

// awaitEarlyPass holds a worker between operations until the flusher has
// taken its published backlog l below the threshold — by an early pass, or
// by the close, which empties the buffer — or no flusher goroutine is left
// to take it (Stop, or a crash hook that killed it). The worker announces
// no epoch meanwhile, so no task waits for it. Manual mode and eADR heaps
// never publish a threshold, so they never wait. It spins spinRounds
// rounds and then parks on pendCond, which the flusher broadcasts after
// every pass and close and when it ends.
func (s *System) awaitEarlyPass(l *pubList) {
	for spin := 0; l.backlog() >= s.earlyAt.Load(); spin++ {
		s.pendMu.Lock()
		live := s.flusherLive
		if live && spin >= spinRounds && l.backlog() >= s.earlyAt.Load() {
			s.pendCond.Wait()
		}
		s.pendMu.Unlock()
		if !live {
			return
		}
		if spin < spinRounds {
			runtime.Gosched()
		}
	}
}

// noteCost takes the per-block write-back cost from one write-back of
// blocks tracked blocks that took d — the whole of a task's commit or of an
// early pass, journal pages and checkpoints included — and republishes the
// early threshold: the backlog share at which the workers that tracked in
// the last closed epoch, if they all held as much, would cost the closing
// task the budget at the median of the last costWindow costs. A write-back's
// wall time includes any time the flusher sat descheduled; the median
// ignores such a sample until most of the window reads as slow, that is
// until the host really is slower. Manual mode has no doorbell to ring, and
// its threshold stays at never. The caller holds taskMu.
func (s *System) noteCost(d time.Duration, blocks int) {
	if s.cfg.Manual || blocks < costSample {
		return
	}
	s.costs[s.costN%costWindow] = max(d.Nanoseconds()/int64(blocks), 1)
	s.costN++
	window := s.costs // a copy: sorting it leaves the ring's order alone
	sorted := window[:min(s.costN, costWindow)]
	slices.Sort(sorted)
	cost := sorted[len(sorted)/2]
	budget := int64(s.cfg.EpochLength / earlyBudgetDiv)
	s.earlyAt.Store(max(budget/cost/int64(max(s.trackers, 1)), 1))
}
