// Package epoch implements the paper's primary contribution: a
// buffered-durably-linearizable (BDL) epoch system that reconciles
// hardware transactional memory with persistent programming (Sec. 3).
//
// The design extends Montage (Wen et al., ICPP'21). A background advancer
// increments a global epoch clock every few milliseconds, dividing
// execution into epochs, and a background flusher persists each epoch as
// it closes. At any instant,
//
//   - epoch e (the value of the global clock) is *active*: new operations
//     begin here;
//   - epoch e-1 is *closed*: operations that began there may finish, but
//     no new ones start, and it has been handed to the flusher — being
//     flushed from the instant it closed;
//   - epochs ≤ e-2 are *valid*: their updates have fully persisted (the
//     advance that closes e-1 first waits for e-2's flush to land).
//
// NVM writes performed during an epoch are tracked in per-worker buffers
// and flushed in the background when the epoch closes (or ahead of the
// close, once the backlog would cost it more than a sixteenth of an epoch —
// early.go), never on the operation's critical path and never inside a
// transaction body (which may run as a hardware transaction or, after
// repeated aborts, as a slow-path session of the same htm.Tx) — this
// removes the flush/HTM incompatibility entirely. A crash during epoch e
// recovers the structure to its state at the end of an epoch ≥ e-2.
//
// HTM-specific extensions over Montage (Sec. 3 of the paper):
//
//   - blocks are preallocated *outside* transactions with an invalid epoch
//     number, and stamped with the operation's epoch transactionally via
//     SetEpochTx just before use (Listing 1);
//   - persistence (PTrack) and reclamation (PRetire) of blocks touched by
//     a transaction are deferred until after the transaction commits;
//     a retirement becomes durable as a record in the closing epoch's
//     retire journal (journal.go), not as a write-back of the retired
//     block's header;
//   - updating a block that a later epoch already modified is forbidden —
//     the operation aborts with OldSeeNewCode (the OldSeeNewException) and
//     restarts in the current epoch.
//
// The paper's Table 2 API is the Worker's: BeginOp/EndOp/AbortOp bracket
// an operation, PNew/PTrack/PRetire/PDelete manage blocks. The structures
// do not call it directly. Listing 1 — preallocate, stamp inside the
// transaction, compare epochs, restart on OldSeeNew, track and retire
// after the commit — is written once, as Op (op.go): a buffered structure
// begins a write with Worker.BeginInsert or BeginRemove, runs its body
// with Op.Run, reports inside it what it found (Link, Revise, Unlink,
// Absent) and ends with Op.End.
package epoch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/palloc"
)

// Durable root layout (word addresses within nvm.RootWords).
const (
	rootMagicAddr nvm.Addr = 1
	// WatermarkAddr holds the durable watermark: the newest epoch whose
	// updates are fully persistent. Each close advances it behind the
	// epoch's write-back fence; recovery reads it back as the boundary P.
	WatermarkAddr nvm.Addr = 2

	rootMagic = 0xbd17eb0c0ffee001
)

// firstEpoch is the epoch in which a fresh system starts. It leaves room
// below it so that "persisted = firstEpoch-2" is representable.
const firstEpoch = 2

// numSlots is the depth of the per-worker buffer ring. Buffers for epoch x
// are drained before epoch x+2 ends, so 8 slots give a wide safety margin.
const numSlots = 8

// OldSeeNewCode is the conventional HTM explicit-abort code structures use
// for the paper's OldSeeNewException: an operation in an old epoch found a
// block modified in a newer epoch and must restart in the current epoch.
const OldSeeNewCode uint8 = 0xE1

// Config tunes an epoch system.
type Config struct {
	// EpochLength is the advancer's period: the background advancer
	// closes an epoch at each deadline start + k·EpochLength, woken by a
	// kernel timer (a timerfd on Linux) or a runtime timer, whichever
	// comes first (clock.go). A deadline the advancer has wholly missed —
	// a close that waited on the flusher past the next one — is skipped,
	// not made up. Default 50ms (the paper's default experimental
	// setting).
	EpochLength time.Duration
	// MaxWorkers bounds concurrently registered workers. Default 256.
	MaxWorkers int
	// Manual starts neither background goroutine: the caller is the
	// advancer (AdvanceOnce closes the active epoch and leaves it pending)
	// and the flusher (FlushOnce persists the pending epoch). A caller that
	// never calls FlushOnce has the pending epoch drained by its next
	// AdvanceOnce or Sync — a flusher a full epoch behind. Used by tests
	// and deterministic examples.
	Manual bool
	// Obs, when non-nil, receives the epoch-advance phase timeline
	// (quiesce, flush, root and reclaim durations). The counters stay in
	// Stats, and the heap's and the allocator's in their own Stats.
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.EpochLength == 0 {
		c.EpochLength = 50 * time.Millisecond
	}
	if c.MaxWorkers == 0 {
		c.MaxWorkers = 256
	}
	return c
}

// Stats counts epoch-system activity.
type Stats struct {
	Advances      int64 // epoch transitions
	FlushedBlocks int64 // blocks written back by the background persister
	RetiredBlocks int64 // blocks retired (deferred reclamation)
	FreedBlocks   int64 // retired blocks actually reclaimed
	Resurrected   int64 // deleted-but-unpersisted blocks revived by recovery
	RecoveredLive int64 // live blocks handed to the rebuild callback

	// EarlyFlushedBlocks is the subset of FlushedBlocks written back before
	// their epoch closed (early.go).
	EarlyFlushedBlocks int64

	// Recovery timing for a system opened by Recover (zero for systems
	// created by New): the header-scan duration (watermark, journal read,
	// palloc judgment and write-back), the rebuild-callback replay
	// duration, and the worker count the scan actually used.
	RecoveryScanNS    int64
	RecoveryRebuildNS int64
	RecoveryWorkers   int

	// Retire-journal traffic: records appended (one per retired block, at
	// the close of its epoch) and block headers checkpointed when a page
	// was recycled with the record still judging the media. The rest of
	// the recycled records were superseded by a reallocation for free.
	JournalRecords     int64
	JournalCheckpoints int64
	// JournalEarlyRecords is the subset of JournalRecords written in
	// journal pages by an early pass, before their epoch closed (early.go).
	JournalEarlyRecords int64

	// What Recover found in the journal (zero for systems created by
	// New): pages at or below the recovered watermark whose records it
	// read, blocks those records reclaimed, and rolled-back pages erased.
	JournalPagesRead      int64
	JournalRecordsApplied int64
	JournalPagesErased    int64

	Backpressure int64 // advances that waited for the flusher goroutine to land the previous epoch
	FlusherDepth int64 // closed epochs not yet persisted: global − 1 − persisted, clamped to [0, 1]
	AdvanceP99NS int64 // p99 of AdvanceOnce wall time, nanoseconds

	// The close's own persist traffic (runTask): EngineCommits counts the
	// closes on a non-eADR heap, EngineFences and EngineFlushes what they
	// issued — 2 fences per commit, one flush per extent plus the
	// watermark's — and a recovery adds the watermark's flush and fence.
	// Early passes are not counted. EngineLogWords is always 0: the close
	// keeps no log. The names, and the field that is always 0, are pinned
	// by bench/'s durability probes.
	EngineCommits  int64
	EngineFences   int64
	EngineFlushes  int64
	EngineLogWords int64
}

// System is a BDL epoch system over one NVM heap.
type System struct {
	heap  *nvm.Heap
	alloc *palloc.Allocator
	cfg   Config

	global    atomic.Uint64 // active epoch
	persisted atomic.Uint64 // newest fully persisted epoch (mirrors NVM root)

	workers  []*Worker
	nWorkers atomic.Int32
	freeMu   sync.Mutex
	freeIDs  []int

	advMu sync.Mutex // serializes epoch advancement

	// Advancer→flusher hand-off. pendEpoch is the closed epoch awaiting
	// its flush (0 = none); the doorbell wakes the flusher goroutine — the
	// advancer rings it for pendEpoch, a worker for an early pass —
	// pendCond wakes an advance blocked on backpressure and a worker
	// waiting for an early pass (awaitEarlyPass). flusherLive is true
	// while that goroutine runs — never in Manual mode, and no longer once
	// Stop or a crash hook has ended it.
	pendMu      sync.Mutex
	pendCond    *sync.Cond
	pendEpoch   uint64
	flusherLive bool
	doorbell    chan struct{} // nil in Manual mode
	flusherDone chan struct{}

	// quiesced wakes a flush parked in waitQuiesce: while quiesceWaiting
	// is set, a worker that moves its announcement off an epoch sends on
	// it (leftEpoch). One flush waits at a time: runTask holds taskMu.
	quiesceWaiting atomic.Bool
	quiesced       chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	clock    clock // the advancer's (clock.go); nil in Manual mode

	advances      atomic.Int64
	backpressure  atomic.Int64
	resurrected   atomic.Int64
	recoveredLive atomic.Int64

	recoveryScanNS    atomic.Int64 // set once by Recover
	recoveryRebuildNS atomic.Int64 // set once by Recover
	recoveryWorkers   int          // set once by Recover, before the system is shared

	// Block-lifecycle counters. Retired is bumped worker-side by PRetire;
	// flushed and freed are published by the flusher in one burst per task
	// or early pass under the advSeq seqlock.
	flushed atomic.Int64
	retired atomic.Int64
	freed   atomic.Int64
	advSeq  atomic.Uint64 // seqlock over each task's counter burst
	advHist obs.Hist      // AdvanceOnce wall-time distribution

	// The close's persist accounting (Stats.Engine*).
	commits atomic.Int64
	fences  atomic.Int64
	flushes atomic.Int64

	journal             journal // the flusher's retire-journal state (journal.go)
	journalRecords      atomic.Int64
	journalCheckpoints  atomic.Int64
	journalEarlyRecords atomic.Int64
	// Set once by Recover, before the system is shared.
	journalPagesRead, journalRecordsApplied, journalPagesErased int64

	// taskMu serialises flush tasks (runTask) and early passes (early.go):
	// the flusher goroutine runs both, but a task may also run inline under
	// advMu and FlushEarly on its caller's goroutine.
	taskMu sync.Mutex

	// runTask's scratch — the epoch's tracked and retired block addresses
	// and the close's extent batch. Tasks are serialised, so one set,
	// emptied at the start of each task, serves them all.
	taskPersist []nvm.Addr
	taskRetire  []nvm.Addr
	taskExts    []nvm.Extent

	// Early write-back (early.go). earlyAt is the per-worker published
	// backlog that rings the flusher; trackers — the workers that tracked
	// in the last closed epoch —, the ring of the last per-block costs
	// (costN of them ever noted) and the scratch are the flusher's, under
	// taskMu.
	earlyAt      atomic.Int64
	earlyFlushed atomic.Int64
	trackers     int
	costs        [costWindow]int64
	costN        int
	earlyExts    []nvm.Extent
	earlyRecs    []nvm.Addr
	earlyMarks   []earlyMark

	// Durable-watermark subscribers (group-commit ackers and friends).
	// Notifications are coalescing wakes, not a value stream: subscribers
	// re-read PersistedEpoch after each wake.
	subMu   sync.Mutex
	subs    map[uint64]chan<- uint64
	subNext uint64

	// The DRAM indexes a crash drops (OnCrash), each held weakly.
	crashMu    sync.Mutex
	crashHooks []func()

	// removals guards every absence an operation acts on against a newer
	// epoch's removal (removal.go, Op).
	removals removalStamps
}

// newSystem builds the in-DRAM skeleton shared by New and Recover; the
// caller initializes the epoch clocks and root words and then calls
// startAdvancer.
func newSystem(h *nvm.Heap, cfg Config) *System {
	s := &System{
		heap:     h,
		alloc:    palloc.New(h),
		cfg:      cfg,
		workers:  make([]*Worker, cfg.MaxWorkers),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		quiesced: make(chan struct{}, 1),
	}
	s.pendCond = sync.NewCond(&s.pendMu)
	s.earlyAt.Store(neverEarly)
	return s
}

// New formats a fresh epoch system on the heap and starts the background
// advancer (unless cfg.Manual). Any prior contents of the heap's root area
// are overwritten.
func New(h *nvm.Heap, cfg Config) *System {
	s := newSystem(h, cfg.withDefaults())
	s.global.Store(firstEpoch)
	s.persisted.Store(firstEpoch - 2)
	h.Store(rootMagicAddr, rootMagic)
	h.Store(WatermarkAddr, firstEpoch-2)
	h.FlushRange(rootMagicAddr, 2)
	h.Fence()
	s.startAdvancer()
	return s
}

func (s *System) startAdvancer() {
	if s.cfg.Manual {
		close(s.done)
		return
	}
	s.doorbell = make(chan struct{}, 1)
	s.flusherDone = make(chan struct{})
	s.flusherLive = true
	go s.flusherLoop()
	start := time.Now()
	s.clock = newClock(s.cfg.EpochLength)
	go s.advancer(s.clock, start)
}

// flusherLoop is the background flusher: each doorbell ring persists the
// pending epoch and then, if the open epoch's backlog is due, writes it
// back early (early.go). On Stop it exits without draining — a crash may
// land while a flush is queued, which is exactly the state recovery must
// (and does) handle, since the undrained epoch is within the two-epoch
// window.
func (s *System) flusherLoop() {
	defer func() {
		// A persist hook that simulates a power failure panics mid-flush:
		// the flusher dies with the machine and the epoch stays pending.
		// If the process survives (tests), the next settle drains it inline.
		recover()
		s.pendMu.Lock()
		s.flusherLive = false
		s.pendMu.Unlock()
		s.pendCond.Broadcast()
		close(s.flusherDone)
	}()
	for {
		select {
		case <-s.stop:
			return
		case <-s.doorbell:
			s.flushPending()
			s.earlyPass(false)
			s.pendMu.Lock() // a worker checks its backlog under pendMu before it waits
			s.pendCond.Broadcast()
			s.pendMu.Unlock()
		}
	}
}

// flushPending is the flusher's step: persist the pending epoch, if any,
// and wake an advance waiting on the hand-off. It runs on the flusher
// goroutine or, when there is none, under advMu.
func (s *System) flushPending() {
	s.pendMu.Lock()
	x := s.pendEpoch
	s.pendMu.Unlock()
	if x == 0 {
		return
	}
	s.runTask(x)
	s.pendMu.Lock()
	s.pendEpoch = 0
	s.pendMu.Unlock()
	s.pendCond.Broadcast()
}

// settle lands the pending hand-off, under advMu: it waits for a live
// flusher goroutine — counted as backpressure when it is an advance that
// has to wait — and otherwise (Manual mode, or a flusher ended by Stop or
// a crash hook) runs the flusher's step inline.
func (s *System) settle(advancing bool) {
	s.pendMu.Lock()
	if advancing && s.pendEpoch != 0 && s.flusherLive {
		s.backpressure.Add(1)
	}
	for s.pendEpoch != 0 && s.flusherLive {
		s.pendCond.Wait()
	}
	s.pendMu.Unlock()
	s.flushPending()
}

// FlushOnce is the Manual-mode flusher step, the counterpart of
// AdvanceOnce: it persists the epoch the last advance left pending, so
// that PersistedEpoch == GlobalEpoch-1 until the next advance. It does
// nothing when nothing is pending or when a flusher goroutine owns the
// hand-off.
func (s *System) FlushOnce() {
	s.advMu.Lock()
	defer s.advMu.Unlock()
	s.pendMu.Lock()
	live := s.flusherLive
	s.pendMu.Unlock()
	if !live {
		s.flushPending()
	}
}

// Heap returns the underlying simulated NVM heap.
func (s *System) Heap() *nvm.Heap { return s.heap }

// Allocator returns the underlying persistent allocator.
func (s *System) Allocator() *palloc.Allocator { return s.alloc }

// MaxWorkers returns the bound on worker IDs: every Worker.ID is below it.
// Structures size per-worker state from it.
func (s *System) MaxWorkers() int { return s.cfg.MaxWorkers }

// GlobalEpoch returns the current active epoch.
func (s *System) GlobalEpoch() uint64 { return s.global.Load() }

// PersistedEpoch returns the newest epoch whose updates are fully durable.
func (s *System) PersistedEpoch() uint64 { return s.persisted.Load() }

// SubscribeDurable registers ch to be poked whenever the durable
// watermark advances. Sends are non-blocking and coalescing: if ch is
// full the notification is dropped, so subscribers must treat each
// received value as "the watermark moved" and re-read PersistedEpoch
// for the current value (a buffered channel of capacity 1 is the
// intended shape). The returned cancel function unregisters ch; it is
// idempotent and never closes ch. This is the group-commit hook: a
// server acker subscribes, and on each wake flushes durable acks for
// every op whose commit epoch is now ≤ the watermark.
func (s *System) SubscribeDurable(ch chan<- uint64) (cancel func()) {
	s.subMu.Lock()
	if s.subs == nil {
		s.subs = make(map[uint64]chan<- uint64)
	}
	id := s.subNext
	s.subNext++
	s.subs[id] = ch
	s.subMu.Unlock()
	return func() {
		s.subMu.Lock()
		delete(s.subs, id)
		s.subMu.Unlock()
	}
}

// notifyDurable pokes every subscriber after the durable watermark
// reaches p and reports whether it woke any. Called from the advance path
// with advMu held (or from the background flusher), so it must never
// block: full subscriber channels just miss this wake and catch up on the
// next.
func (s *System) notifyDurable(p uint64) (woke bool) {
	s.subMu.Lock()
	for _, ch := range s.subs {
		select {
		case ch <- p:
			woke = true
		default:
		}
	}
	s.subMu.Unlock()
	return woke
}

// Stats returns a consistent snapshot of epoch-system activity counters.
//
// The advance-side counters (flushed, freed) are published in one short
// burst per flush task under the advSeq seqlock, so a snapshot never
// shows a task's counters half-applied. Retired is bumped worker-side
// outside the seqlock; it is loaded strictly after freed, which keeps
// the fuzzer's conservation invariant (freed <= retired) true in every
// snapshot: each freed block was retired earlier, and both counters are
// monotone.
func (s *System) Stats() Stats {
	var st Stats
	for {
		s1 := s.advSeq.Load()
		if s1&1 != 0 {
			runtime.Gosched()
			continue
		}
		st.Advances = s.advances.Load()
		st.Backpressure = s.backpressure.Load()
		st.JournalRecords = s.journalRecords.Load()
		st.JournalCheckpoints = s.journalCheckpoints.Load()
		st.JournalEarlyRecords = s.journalEarlyRecords.Load()
		st.EarlyFlushedBlocks = s.earlyFlushed.Load()
		st.FlushedBlocks = s.flushed.Load()
		st.FreedBlocks = s.freed.Load()
		if s.advSeq.Load() == s1 {
			break
		}
	}
	st.RetiredBlocks = s.retired.Load()
	st.FlusherDepth = min(max(int64(s.global.Load())-1-int64(s.persisted.Load()), 0), 1)
	st.Resurrected = s.resurrected.Load()
	st.RecoveredLive = s.recoveredLive.Load()
	st.JournalPagesRead = s.journalPagesRead
	st.JournalRecordsApplied = s.journalRecordsApplied
	st.JournalPagesErased = s.journalPagesErased
	st.RecoveryScanNS = s.recoveryScanNS.Load()
	st.RecoveryRebuildNS = s.recoveryRebuildNS.Load()
	st.RecoveryWorkers = s.recoveryWorkers
	st.AdvanceP99NS = s.advHist.Snapshot().Quantile(0.99)
	st.EngineCommits = s.commits.Load()
	st.EngineFences = s.fences.Load()
	st.EngineFlushes = s.flushes.Load()
	return st
}

// eadr reports whether the heap has a persistent cache, in which case the
// epoch system "automatically disables itself" (Sec. 4.3): background
// flushing is skipped because every store is already durable.
func (s *System) eadr() bool { return s.heap.Mode() == nvm.ModeEADR }

// Stop halts the background advancer. Used before simulating a crash and
// when shutting down cleanly.
func (s *System) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		if s.clock != nil {
			s.clock.close()
		}
	})
	<-s.done
	if s.flusherDone != nil {
		<-s.flusherDone
	}
}

// AdvanceOnce is the advancer's step, one epoch transition e -> e+1:
//
//  1. settle the previous hand-off, so that at most one closed epoch is
//     ever unflushed behind the active one and recovery's window
//     P >= crash_epoch - 2 holds — an advance that finds epoch e-1's
//     flush still in flight waits for it (backpressure);
//  2. publish the new active epoch e+1;
//  3. hand epoch e — which quiesces once its in-flight operations drain —
//     to the flusher, whose task (runTask) flushes every NVM write tracked
//     in e that no early pass wrote back, and the journal pages
//     recording the blocks retired in e that no early pass journaled,
//     durably advances the watermark to e, and reclaims e's retired
//     blocks.
//
// So the flush of e overlaps execution of e+1: between advances
// PersistedEpoch is GlobalEpoch-1 once the flush has landed and
// GlobalEpoch-2 while it is in flight, never less.
//
// Worker threads are never paused by an advance: operations keep
// starting in the active epoch throughout. (A worker that outruns the
// flusher waits between operations for an early pass; see early.go.)
// AdvanceOnce is normally driven by the background advancer but may be
// called directly (tests, Manual mode).
func (s *System) AdvanceOnce() {
	s.advMu.Lock()
	defer s.advMu.Unlock()
	s.advance()
}

// advance is AdvanceOnce's body; the caller holds advMu.
func (s *System) advance() {
	t0 := time.Now()
	s.settle(true)
	// Catch up any epochs the persisted clock is still behind (fresh
	// system, post-recovery); a no-op otherwise.
	e := s.global.Load()
	for p := s.persisted.Load(); p < e-1; p = s.persisted.Load() {
		s.runTask(p + 1)
	}

	s.global.Store(e + 1)
	s.pendMu.Lock()
	s.pendEpoch = e
	s.pendMu.Unlock()
	select {
	case s.doorbell <- struct{}{}:
	default:
		// Already rung, or no doorbell (Manual): FlushOnce or the next
		// settle picks the epoch up.
	}

	s.advances.Add(1)
	s.advHist.Record(e, int64(time.Since(t0)))
}

// runTask persists epoch x: it waits for x to quiesce, collects every
// worker's tracked blocks and retirements for x that no early pass took,
// journals those retirements, writes the lot back and durably advances the
// watermark to x, lets the waiters it woke run, and then plans the next
// recycle and reclaims all of x's retired blocks in address order. Callers
// guarantee x < the active epoch.
func (s *System) runTask(x uint64) {
	s.taskMu.Lock()
	defer s.taskMu.Unlock()
	o := s.cfg.Obs
	t := o.Now()

	// (1) Wait for in-flight operations in x to complete. New operations
	// only ever start in the active epoch, so no new work appears in x.
	s.waitQuiesce(x)
	if o != nil {
		t = o.Phase(obs.PhaseQuiesce, x, t)
	}

	// (2) Collect the per-worker buffers for x: of the tracked blocks and
	// of the retirements, those after the last early pass; then the
	// retirements early passes journaled, which are freed all the same.
	persist, retire := s.taskPersist[:0], s.taskRetire[:0]
	n := int(s.nWorkers.Load())
	slot := int(x % numSlots)
	s.trackers = 0
	for i := 0; i < n; i++ {
		buf := &s.workers[i].bufs[slot]
		if len(buf.persist.items) > 0 {
			s.trackers++
		}
		persist = append(persist, buf.persist.items[buf.persist.early.Load():]...)
		retire = append(retire, buf.retire.items[buf.retire.early.Load():]...)
	}
	unjournaled := len(retire)
	for i := 0; i < n; i++ {
		buf := &s.workers[i].bufs[slot]
		retire = append(retire, buf.retire.items[:buf.retire.early.Load()]...)
		buf.reset()
	}
	s.taskPersist, s.taskRetire = persist, retire

	// (3) The epoch's extents — tracked blocks, then the journal's
	// checkpoints and pages — in one batch.
	// (4) The commit: one write-back of the batch and a fence, then the
	// watermark word behind a second fence. No log is kept: the per-worker
	// buffers are the log, and recovery judges every header against the
	// watermark. An early pass needs no commit of its own: what it writes
	// is durable under this epoch's first fence, before the watermark can
	// name the epoch, and recovery treats it as an eviction until then.
	// Under eADR every store is already durable and only the watermark word
	// needs recording.
	var flushed, records, checkpoints int64
	if !s.eadr() {
		t0 := time.Now()
		t = o.Now()
		h, exts := s.heap, s.taskExts[:0]
		for _, b := range persist {
			exts = append(exts, nvm.Extent{Addr: b, Words: s.alloc.BlockWords(b)})
		}
		flushed = int64(len(persist))
		exts, records, checkpoints = s.journalEpoch(x, retire[:unjournaled], exts)
		s.taskExts = exts
		h.FlushExtents(exts)
		h.Fence()
		if o != nil {
			t = o.Phase(obs.PhaseFlush, x, t)
		}
		h.Store(WatermarkAddr, x)
		h.Flush(WatermarkAddr)
		h.Fence()
		if o != nil {
			o.Phase(obs.PhaseRoot, x, t)
		}
		s.commits.Add(1)
		s.fences.Add(2)
		s.flushes.Add(int64(len(exts)) + 1)
		s.noteCost(time.Since(t0), len(persist))
	} else {
		if o != nil {
			t = o.Phase(obs.PhaseFlush, x, t)
		}
		s.heap.Store(WatermarkAddr, x)
		s.heap.Persist(WatermarkAddr)
	}
	s.persisted.Store(x)
	// Waiters first: a woken subscriber — a durable-ack writer — is queued
	// on this goroutine's processor and would otherwise wait out the
	// reclamation below, so yield to it.
	if s.notifyDurable(x) {
		runtime.Gosched()
	}
	if !s.eadr() {
		s.planRecycle(x + 1)
		t = o.Now()
	} else if o != nil {
		t = o.Phase(obs.PhaseRoot, x, t)
	}

	// (5) Blocks retired in x are now reclaimable: their journal records
	// and the root above are durable, so no recovery can resurrect them.
	// The batch free pushes them in descending address order, so the
	// epochs after allocate them in ascending order and the blocks one of
	// them tracks share lines and XPLines.
	s.alloc.FreeBatch(retire)

	// Publish the task's counter burst under the seqlock so Stats never
	// observes it half-applied.
	freed := int64(len(retire))
	s.advSeq.Add(1)
	s.flushed.Add(flushed)
	s.freed.Add(freed)
	s.journalRecords.Add(records)
	s.journalCheckpoints.Add(checkpoints)
	s.advSeq.Add(1)
	if o != nil {
		o.Phase(obs.PhaseReclaim, x, t)
	}
}

// spinRounds bounds the runtime.Gosched rounds of a wait for another
// goroutine — a flush for the workers of a closed epoch (waitQuiesce), a
// worker for an early pass (awaitEarlyPass) — before it parks. A yield
// hands over the P but keeps the waiter's thread on its CPU, and with one
// busy worker on two vCPUs the awaited worker then sometimes sat runnable
// off its CPU for milliseconds: 100 µs epochs ran a third slower
// (EXPERIMENTS, "Spinning waits").
const spinRounds = 64

// waitQuiesce returns once no worker is announced in epoch target: it
// spins spinRounds rounds, then parks until a worker leaves an epoch.
func (s *System) waitQuiesce(target uint64) {
	for i := 0; i < spinRounds; i++ {
		if !s.announced(target) {
			return
		}
		runtime.Gosched()
	}
	// Sequentially consistent on both sides: either a check below sees
	// the worker's announcement gone, or the worker sees the flag set.
	s.quiesceWaiting.Store(true)
	for s.announced(target) {
		<-s.quiesced // a token may be stale: re-check
	}
	s.quiesceWaiting.Store(false)
}

// announced reports whether a worker is announced in epoch e.
func (s *System) announced(e uint64) bool {
	n := int(s.nWorkers.Load())
	for i := 0; i < n; i++ {
		if s.workers[i].ann.Load() == e {
			return true
		}
	}
	return false
}

// leftEpoch wakes a flush parked in waitQuiesce. A worker calls it after
// moving its announcement off an epoch.
func (s *System) leftEpoch() {
	if s.quiesceWaiting.Load() {
		select {
		case s.quiesced <- struct{}{}:
		default: // a wake is already pending
		}
	}
}

// Sync returns once every operation that completed before the call is
// durable: it closes the active epoch and settles its hand-off (waits for
// the flusher, or runs the flush inline when there is none), so the clock
// moves by exactly one epoch. It must not be called between BeginOp and
// EndOp on the calling thread (the flush would wait for that operation).
func (s *System) Sync() {
	s.advMu.Lock()
	defer s.advMu.Unlock()
	s.advance()
	s.settle(false)
}

// Register allocates a Worker for the calling thread. Workers are pooled:
// Release returns one for reuse. Panics when MaxWorkers distinct workers
// are simultaneously live.
func (s *System) Register() *Worker {
	// The id claim, the slot fill and the nWorkers bump are one critical
	// section: two callers reading nWorkers outside it would claim the
	// same id, share one announcement slot and leave a nil slot below
	// nWorkers for waitQuiesce to trip over.
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	if n := len(s.freeIDs); n > 0 {
		id := s.freeIDs[n-1]
		s.freeIDs = s.freeIDs[:n-1]
		return s.workers[id]
	}
	id := int(s.nWorkers.Load())
	if id >= s.cfg.MaxWorkers {
		panic(fmt.Sprintf("epoch: more than %d workers", s.cfg.MaxWorkers))
	}
	w := &Worker{sys: s, id: id}
	s.workers[id] = w
	s.nWorkers.Add(1) // publish after the slot is filled (waitQuiesce reads lock-free)
	return w
}

// Release returns a worker to the pool. The caller must have no operation
// in progress. Buffered (not-yet-persisted) writes remain owned by the
// epoch system and are flushed on schedule.
func (s *System) Release(w *Worker) {
	if w.ann.Load() != 0 {
		panic("epoch: Release with operation in progress")
	}
	s.freeMu.Lock()
	s.freeIDs = append(s.freeIDs, w.id)
	s.freeMu.Unlock()
}
