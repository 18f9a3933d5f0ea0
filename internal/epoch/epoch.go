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
// and flushed in the background when the epoch closes, never on the
// operation's critical path and never inside a transaction body (which may
// run as a hardware transaction or, after repeated aborts, as a slow-path
// session of the same htm.Tx) — this removes the flush/HTM incompatibility
// entirely. A crash during epoch e
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
//     structures abort with ErrOldSeeNew (the OldSeeNewException) and
//     restart in the current epoch.
package epoch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bdhtm/internal/durability"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/palloc"
)

// Durable root layout (word addresses within nvm.RootWords). The
// durability layer owns the two words after the magic: the persisted
// watermark (durability.WatermarkAddr) and the engine-identity word.
const (
	rootMagicAddr nvm.Addr = 1

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
	// EpochLength is the advancer's tick. Default 50ms (the paper's
	// default experimental setting).
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
	// Shards is the width of the persistence path: the parallel flush
	// fan-out during an advance, the per-shard block-lifecycle counters,
	// and the allocator's magazine caches are all striped this many ways,
	// with workers mapped to shards by ID. Rounded down to a power of two
	// and clamped to [1, 32] (obs.NumShards) so a shard index is also an
	// exact obs counter lane. Default 1 — the serial path.
	Shards int
	// RecoveryWorkers is the number of goroutines Recover partitions the
	// slab header scan across (Sec. 5.2's judgment is independent per
	// block, so the scan parallelizes by slab range). 0 or 1 selects the
	// serial scan; values are clamped to [1, 64]. The engine's media
	// repair and the rebuild-callback replay stay serial either way, and
	// the rebuilt state is bit-identical to the serial scan's.
	RecoveryWorkers int
	// RecoveryTick, when non-nil, is called periodically during
	// Recover's header scan with live progress: slabs scanned, blocks
	// recovered so far, resurrections so far. Calls may come
	// concurrently from recovery worker goroutines, so implementations
	// must be thread-safe and cheap. cmd/bdrecover uses it for its live
	// progress report.
	RecoveryTick func(slabs, recovered, resurrected int64)
	// Engine selects the durability engine that persists each closing
	// epoch: "bdl" (default — the paper's buffered-durability epoch
	// engine), "undo", "redo4f", "redo2f" or "quadra" (see package
	// durability). Recovery must use the engine that formatted the
	// heap; mixing them panics.
	Engine string
	// Obs, when non-nil, receives the epoch-advance phase timeline
	// (quiesce/flush/root/reclaim durations plus per-shard fan-out
	// timings), advance events, per-shard block-lifecycle counters, the
	// flusher queue-depth gauge, and the allocator's alloc/free events.
	// It does not reach the heap: attach a recorder there separately
	// (nvm.Heap.SetObs) if persist events are wanted too.
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.EpochLength == 0 {
		c.EpochLength = 50 * time.Millisecond
	}
	if c.MaxWorkers == 0 {
		c.MaxWorkers = 256
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Shards > obs.NumShards {
		c.Shards = obs.NumShards
	}
	for c.Shards&(c.Shards-1) != 0 {
		c.Shards &= c.Shards - 1
	}
	if c.RecoveryWorkers < 1 {
		c.RecoveryWorkers = 1
	}
	if c.RecoveryWorkers > 64 {
		c.RecoveryWorkers = 64
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

	// Recovery timing for a system opened by Recover (zero for systems
	// created by New): the header-scan duration (engine repair + palloc
	// judgment + write-back), the rebuild-callback replay duration, and
	// the worker count the scan actually used.
	RecoveryScanNS    int64
	RecoveryRebuildNS int64
	RecoveryWorkers   int

	// Retire-journal traffic: records appended (one per retired block, at
	// the close of its epoch) and block headers checkpointed when a page
	// was recycled with the record still judging the media. The rest of
	// the recycled records were superseded by a reallocation for free.
	JournalRecords     int64
	JournalCheckpoints int64

	// What Recover found in the journal (zero for systems created by
	// New): pages at or below the recovered watermark whose records it
	// read, blocks those records reclaimed, and rolled-back pages erased.
	JournalPagesRead      int64
	JournalRecordsApplied int64
	JournalPagesErased    int64

	Shards       int   // persistence-path shard count (Config.Shards)
	Backpressure int64 // advances that waited for the flusher goroutine to land the previous epoch
	AdvanceP99NS int64 // p99 of AdvanceOnce wall time, nanoseconds

	// Durability-engine identity and self-accounting (Config.Engine;
	// see durability.Accounting). EngineFences relates to EngineCommits
	// by the engine's documented per-commit fence budget, plus the
	// spill surcharge.
	Engine         string
	EngineCommits  int64
	EngineFences   int64
	EngineFlushes  int64
	EngineLogWords int64
	LogSpills      int64

	// PerShard is the per-flusher-shard decomposition of the flushed /
	// retired / freed totals (len == Shards; sums equal the aggregates).
	PerShard []ShardCounters
}

// ShardCounters is one flusher shard's slice of the block-lifecycle
// counters.
type ShardCounters struct {
	FlushedBlocks int64
	RetiredBlocks int64
	FreedBlocks   int64
}

// shardCtr is one shard's cache-line-padded counter stripe. Retired is
// bumped worker-side by PRetire; flushed and freed are published by the
// advancer in one burst per task under the advSeq seqlock.
type shardCtr struct {
	flushed atomic.Int64
	retired atomic.Int64
	freed   atomic.Int64
	_       [5]int64
}

// System is a BDL epoch system over one NVM heap.
type System struct {
	heap  *nvm.Heap
	alloc *palloc.Allocator
	cfg   Config
	eng   durability.Engine

	global    atomic.Uint64 // active epoch
	persisted atomic.Uint64 // newest fully persisted epoch (mirrors NVM root)

	workers  []*Worker
	nWorkers atomic.Int32
	freeMu   sync.Mutex
	freeIDs  []int

	advMu sync.Mutex // serializes epoch advancement

	// Advancer→flusher hand-off. pendEpoch is the closed epoch awaiting
	// its flush (0 = none); the doorbell wakes the flusher goroutine,
	// pendCond wakes an advance blocked on backpressure. flusherLive is
	// true while that goroutine runs — never in Manual mode, and no
	// longer once Stop or a crash hook has ended it.
	pendMu      sync.Mutex
	pendCond    *sync.Cond
	pendEpoch   uint64
	flusherLive bool
	doorbell    chan struct{} // nil in Manual mode
	flusherDone chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	advances      atomic.Int64
	backpressure  atomic.Int64
	resurrected   atomic.Int64
	recoveredLive atomic.Int64

	recoveryScanNS    atomic.Int64 // set once by Recover
	recoveryRebuildNS atomic.Int64 // set once by Recover

	shardCtrs []shardCtr    // per-shard flushed/retired/freed
	advSeq    atomic.Uint64 // seqlock over each task's counter burst
	advHist   obs.Hist      // AdvanceOnce wall-time distribution

	journal            journal // the flusher's retire-journal state (journal.go)
	journalRecords     atomic.Int64
	journalCheckpoints atomic.Int64
	// Set once by Recover, before the system is shared.
	journalPagesRead, journalRecordsApplied, journalPagesErased int64

	// closedNS[e%numSlots] is the obs-clock time epoch e stopped being
	// active, consumed by runTask for the durable-lag gauge.
	closedNS [numSlots]atomic.Int64

	// runTask's per-shard scratch — the epoch's tracked and retired block
	// addresses and flushed counts. Tasks are serialised, so one set,
	// emptied at the start of each task, serves them all.
	taskPersist [][]nvm.Addr
	taskRetire  [][]nvm.Addr
	taskFlushed []int64

	// Durable-watermark subscribers (group-commit ackers and friends).
	// Notifications are coalescing wakes, not a value stream: subscribers
	// re-read PersistedEpoch after each wake.
	subMu   sync.Mutex
	subs    map[uint64]chan<- uint64
	subNext uint64
}

// newSystem builds the in-DRAM skeleton shared by New and Recover; the
// caller initializes the epoch clocks and root words and then calls
// startAdvancer.
func newSystem(h *nvm.Heap, cfg Config) *System {
	s := &System{
		heap:      h,
		alloc:     palloc.New(h),
		cfg:       cfg,
		workers:   make([]*Worker, cfg.MaxWorkers),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		shardCtrs: make([]shardCtr, cfg.Shards),

		taskPersist: make([][]nvm.Addr, cfg.Shards),
		taskRetire:  make([][]nvm.Addr, cfg.Shards),
		taskFlushed: make([]int64, cfg.Shards),
	}
	s.pendCond = sync.NewCond(&s.pendMu)
	s.alloc.SetObs(cfg.Obs)
	s.alloc.SetShards(cfg.Shards)
	eng, err := durability.New(cfg.Engine, h, cfg.Shards, cfg.Obs)
	if err != nil {
		panic(err)
	}
	s.eng = eng
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
	s.eng.Format(firstEpoch - 2) // watermark + engine-identity words (+ log header)
	h.FlushRange(rootMagicAddr, 3)
	h.Fence()
	s.startAdvancer()
	return s
}

// Engine returns the durability engine persisting this system's epochs.
func (s *System) Engine() durability.Engine { return s.eng }

func (s *System) startAdvancer() {
	if s.cfg.Manual {
		close(s.done)
		return
	}
	s.doorbell = make(chan struct{}, 1)
	s.flusherDone = make(chan struct{})
	s.flusherLive = true
	go s.flusherLoop()
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.EpochLength)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.AdvanceOnce()
			}
		}
	}()
}

// flusherLoop is the background flusher: each doorbell ring persists the
// pending epoch. On Stop it exits without draining — a crash may land
// while a flush is queued, which is exactly the state recovery must (and
// does) handle, since the undrained epoch is within the two-epoch window.
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
	if o := s.cfg.Obs; o != nil {
		o.SetGauge(obs.GFlusherDepth, 0)
	}
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
// reaches p. Called from the advance path with advMu held (or from the
// background flusher), so it must never block: full subscriber channels
// just miss this wake and catch up on the next.
func (s *System) notifyDurable(p uint64) {
	s.subMu.Lock()
	for _, ch := range s.subs {
		select {
		case ch <- p:
		default:
		}
	}
	s.subMu.Unlock()
}

// Stats returns a consistent snapshot of epoch-system activity counters.
//
// The advance-side counters (flushed, freed) are published in one short
// burst per flush task under the advSeq seqlock, so a snapshot never
// shows a task's counters half-applied. Retired is bumped worker-side
// outside the seqlock; it is loaded strictly after freed, which keeps
// the fuzzer's conservation invariant (freed <= retired, per shard and
// in aggregate) true in every snapshot: each freed block was retired
// earlier, and both counters are monotone.
func (s *System) Stats() Stats {
	st := Stats{Shards: s.cfg.Shards}
	for {
		s1 := s.advSeq.Load()
		if s1&1 != 0 {
			runtime.Gosched()
			continue
		}
		st.Advances = s.advances.Load()
		st.Backpressure = s.backpressure.Load()
		ps := make([]ShardCounters, s.cfg.Shards)
		st.JournalRecords = s.journalRecords.Load()
		st.JournalCheckpoints = s.journalCheckpoints.Load()
		var flushed, freed int64
		for i := range ps {
			ps[i].FlushedBlocks = s.shardCtrs[i].flushed.Load()
			ps[i].FreedBlocks = s.shardCtrs[i].freed.Load()
			flushed += ps[i].FlushedBlocks
			freed += ps[i].FreedBlocks
		}
		if s.advSeq.Load() != s1 {
			continue
		}
		st.PerShard = ps
		st.FlushedBlocks = flushed
		st.FreedBlocks = freed
		break
	}
	for i := range st.PerShard {
		v := s.shardCtrs[i].retired.Load()
		st.PerShard[i].RetiredBlocks = v
		st.RetiredBlocks += v
	}
	st.Resurrected = s.resurrected.Load()
	st.RecoveredLive = s.recoveredLive.Load()
	st.JournalPagesRead = s.journalPagesRead
	st.JournalRecordsApplied = s.journalRecordsApplied
	st.JournalPagesErased = s.journalPagesErased
	st.RecoveryScanNS = s.recoveryScanNS.Load()
	st.RecoveryRebuildNS = s.recoveryRebuildNS.Load()
	if st.RecoveryScanNS > 0 {
		st.RecoveryWorkers = s.cfg.RecoveryWorkers
	}
	st.AdvanceP99NS = s.advHist.Snapshot().Quantile(0.99)
	st.Engine = s.eng.Name()
	a := s.eng.Accounting()
	st.EngineCommits = a.Commits
	st.EngineFences = a.Fences
	st.EngineFlushes = a.Flushes
	st.EngineLogWords = a.LogWords
	st.LogSpills = a.Spills
	return st
}

// eadr reports whether the heap has a persistent cache, in which case the
// epoch system "automatically disables itself" (Sec. 4.3): background
// flushing is skipped because every store is already durable.
func (s *System) eadr() bool { return s.heap.Mode() == nvm.ModeEADR }

// Stop halts the background advancer. Used before simulating a crash and
// when shutting down cleanly.
func (s *System) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
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
//     in e, fanned out across Config.Shards, and the journal pages
//     recording the blocks retired in e, durably advances the watermark
//     to e, and reclaims e's retired blocks.
//
// So the flush of e overlaps execution of e+1: between advances
// PersistedEpoch is GlobalEpoch-1 once the flush has landed and
// GlobalEpoch-2 while it is in flight, never less.
//
// Worker threads are never paused: operations keep starting in the
// active epoch throughout. AdvanceOnce is normally driven by the
// background advancer but may be called directly (tests, Manual mode).
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
	s.stampClosed(e)
	s.pendMu.Lock()
	s.pendEpoch = e
	s.pendMu.Unlock()
	if o := s.cfg.Obs; o != nil {
		o.SetGauge(obs.GFlusherDepth, 1) // before the ring: the flusher zeroes it
	}
	select {
	case s.doorbell <- struct{}{}:
	default:
		// Already rung, or no doorbell (Manual): FlushOnce or the next
		// settle picks the epoch up.
	}

	s.advances.Add(1)
	s.advHist.Record(e, int64(time.Since(t0)))
	if o := s.cfg.Obs; o != nil {
		o.Hit(obs.MAdvances, obs.EvAdvance, e-1, e+1)
	}
}

// stampClosed records when epoch e stopped being active, so runTask can
// report how long it sat closed-but-volatile once it persists. The slot
// ring reuses entries after numSlots epochs, safely past the two-epoch
// persistence window.
func (s *System) stampClosed(e uint64) {
	if o := s.cfg.Obs; o != nil {
		s.closedNS[e%numSlots].Store(o.Now())
	}
}

// runTask persists epoch x: it waits for x to quiesce, collects every
// worker's tracked blocks for x partitioned by flusher shard, journals
// x's retirements, hands the lot to the durability engine (which writes
// it back and durably advances the watermark to x in its own
// discipline), and reclaims x's retired blocks shard-locally. Callers
// serialize tasks (advMu, or the flusher/pendEpoch hand-off protocol)
// and guarantee x < the active epoch.
func (s *System) runTask(x uint64) {
	o := s.cfg.Obs
	t := o.Now()

	// (1) Wait for in-flight operations in x to complete. New operations
	// only ever start in the active epoch, so no new work appears in x.
	s.waitQuiesce(x)
	if o != nil {
		t = o.Phase(obs.PhaseQuiesce, x, t)
	}

	// (2) Collect the per-worker buffers for x, partitioned by shard.
	shards := s.cfg.Shards
	persist, retire, flushed := s.taskPersist, s.taskRetire, s.taskFlushed
	for sh := range persist {
		persist[sh], retire[sh], flushed[sh] = persist[sh][:0], retire[sh][:0], 0
	}
	n := int(s.nWorkers.Load())
	slot := int(x % numSlots)
	for i := 0; i < n; i++ {
		w := s.workers[i]
		buf := &w.bufs[slot]
		persist[w.shard] = append(persist[w.shard], buf.persist...)
		retire[w.shard] = append(retire[w.shard], buf.retire...)
		buf.persist = buf.persist[:0]
		buf.retire = buf.retire[:0]
	}

	// (3)+(4) Hand the epoch's extents — tracked blocks, then the journal's
	// pages and checkpoints — to the durability engine,
	// which makes them and the watermark durable in its own discipline
	// (for BDL: the per-shard write-back fan-out, one combining fence,
	// and a flushed watermark bump — the engine also records the
	// PhaseFlush/PhaseRoot samples at the matching points). Under eADR
	// the engine is skipped entirely: every store is already durable and
	// only the watermark word needs recording.
	var records, checkpoints int64
	if !s.eadr() {
		s.eng.Begin(x)
		// Per-block header reads dominate collection, so fan the shard
		// loops out like the flush itself; LogWrite is safe for distinct
		// shards concurrently (it only appends to per-shard batches).
		collect := func(sh int) {
			for _, b := range persist[sh] {
				hdr := s.alloc.ReadHeader(b)
				s.eng.LogWrite(sh, nvm.Extent{Addr: b, Words: palloc.ClassWords(hdr.Class)})
			}
			flushed[sh] = int64(len(persist[sh]))
		}
		if shards == 1 {
			collect(0)
		} else {
			var wg sync.WaitGroup
			for sh := 0; sh < shards; sh++ {
				wg.Add(1)
				go func(sh int) {
					defer wg.Done()
					collect(sh)
				}(sh)
			}
			wg.Wait()
		}
		records, checkpoints = s.journalEpoch(x, retire)
		s.eng.Commit()
		s.persisted.Store(s.eng.Watermark())
		s.notifyDurable(s.eng.Watermark())
		s.planRecycle(x + 1)
		t = o.Now()
	} else {
		if o != nil {
			t = o.Phase(obs.PhaseFlush, x, t)
		}
		durability.StoreWatermark(s.heap, x)
		s.persisted.Store(x)
		s.notifyDurable(x)
		if o != nil {
			t = o.Phase(obs.PhaseRoot, x, t)
		}
	}

	// Durability-SLO gauges: the live BDL window in epochs, and how long
	// this epoch sat closed but volatile before its flush landed.
	if o != nil {
		o.SetGauge(obs.GDurableLagEpochs, int64(s.global.Load()-s.persisted.Load()))
		if c := s.closedNS[x%numSlots].Load(); c > 0 {
			o.SetGauge(obs.GDurableLagNS, o.Now()-c)
		}
	}

	// (5) Blocks retired in x are now reclaimable: their journal records
	// and the root above are durable, so no recovery can resurrect them.
	// Each shard frees into its own allocator magazine, off the other
	// shards' locks.
	if shards == 1 {
		for _, b := range retire[0] {
			s.alloc.Free(b)
		}
	} else {
		var wg sync.WaitGroup
		for sh := 0; sh < shards; sh++ {
			if len(retire[sh]) == 0 {
				continue
			}
			wg.Add(1)
			go func(sh int) {
				defer wg.Done()
				for _, b := range retire[sh] {
					s.alloc.FreeShard(b, sh)
				}
			}(sh)
		}
		wg.Wait()
	}

	// Publish the task's counter burst under the seqlock so Stats never
	// observes it half-applied.
	s.advSeq.Add(1)
	for sh := 0; sh < shards; sh++ {
		s.shardCtrs[sh].flushed.Add(flushed[sh])
		s.shardCtrs[sh].freed.Add(int64(len(retire[sh])))
	}
	s.journalRecords.Add(records)
	s.journalCheckpoints.Add(checkpoints)
	s.advSeq.Add(1)
	if o != nil {
		for sh := 0; sh < shards; sh++ {
			if f := flushed[sh]; f != 0 {
				o.MetricAdd(obs.MFlushedBlocks, uint64(sh), f)
			}
			if f := int64(len(retire[sh])); f != 0 {
				o.MetricAdd(obs.MFreedBlocks, uint64(sh), f)
			}
		}
		o.MetricAdd(obs.MJournalRecords, 0, records)
		o.MetricAdd(obs.MJournalCheckpoints, 0, checkpoints)
		o.Phase(obs.PhaseReclaim, x, t)
	}
}

// waitQuiesce spins until no worker is announced in epoch target.
func (s *System) waitQuiesce(target uint64) {
	for {
		busy := false
		n := int(s.nWorkers.Load())
		for i := 0; i < n; i++ {
			if s.workers[i].ann.Load() == target {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
		runtime.Gosched()
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
	w := &Worker{sys: s, id: id, shard: id & (s.cfg.Shards - 1)}
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
