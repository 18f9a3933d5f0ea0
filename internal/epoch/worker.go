package epoch

import (
	"sync/atomic"

	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/palloc"
)

// opBuf tracks the NVM activity of one worker in one epoch.
type opBuf struct {
	persist pubList // blocks scheduled for background write-back
	retire  pubList // blocks scheduled for deferred reclamation
}

// pubList is one of a buffer's block lists together with the early pass's
// view of it while the epoch is open (early.go). EndOp publishes the
// completed operations' entries: the backing array when it has grown, then
// the count. The flusher reads items[early:published] — tracked blocks to
// write back, retirements to journal — and moves early past what it wrote;
// the worker only ever appends past published, so neither side writes what
// the other reads.
type pubList struct {
	items     []nvm.Addr
	arr       atomic.Pointer[[]nvm.Addr]
	published atomic.Int64
	early     atomic.Int64
}

// publish makes every entry appended so far visible to early passes and
// reports whether there were new ones.
func (l *pubList) publish() bool {
	n := int64(len(l.items))
	if n == l.published.Load() {
		return false
	}
	// The array only changes by growing, so its capacity names it.
	if arr := l.arr.Load(); arr == nil || cap(*arr) != cap(l.items) {
		p := l.items
		l.arr.Store(&p)
	}
	l.published.Store(n)
	return true
}

// add appends a to the list. A full array is replaced by one of twice
// its length, where append would grow a large one by a quarter: an
// epoch's list of n entries then costs about 2n words of arrays, not 5n.
func (l *pubList) add(a nvm.Addr) {
	if len(l.items) == cap(l.items) {
		l.items = append(make([]nvm.Addr, 0, max(16, 2*cap(l.items))), l.items...)
	}
	l.items = append(l.items, a)
}

// backlog is the number of published entries no early pass has taken.
func (l *pubList) backlog() int64 { return l.published.Load() - l.early.Load() }

// reset empties the list for its next epoch, keeping its capacity.
func (l *pubList) reset() {
	l.items = l.items[:0]
	l.published.Store(0)
	l.early.Store(0)
}

// reset empties the buffer for its next epoch. Only the task that closed the
// epoch calls it, once the epoch has quiesced.
func (b *opBuf) reset() {
	b.persist.reset()
	b.retire.reset()
}

// Worker is the per-thread handle to the epoch system. A Worker must be
// used by one goroutine at a time. It implements the per-operation half of
// the Table 2 API: BeginOp/EndOp/AbortOp bracket each data-structure
// operation; PNew/PTrack/PRetire/PDelete manage NVM blocks. The structures
// reach them through one write bracket, Op (BeginInsert/BeginRemove), which
// owns the worker's preallocated block.
type Worker struct {
	sys *System
	id  int

	// ann is the worker's slot in the announcement array: 0 when idle,
	// otherwise the epoch of the operation in progress.
	ann atomic.Uint64

	opEpoch     uint64
	inTxn       bool
	persistMark int // buffer lengths at BeginOp, for AbortOp rollback
	retireMark  int

	// span is the sampled request span of the operation in progress (nil
	// when unsampled): every HTM attempt routed through Run or Attempt
	// records its outcome there, so service requests get per-cause abort
	// counts without the structures knowing about spans.
	span *obs.Span

	bufs [numSlots]opBuf

	// spare is the worker's preallocated block (Listing 1 line 10), of
	// spareTag and spareWords payload words, kept here so that checking its
	// shape reads nothing from NVM; op is its write operation in progress
	// (op.go).
	spare      Block
	spareTag   uint8
	spareWords int
	op         Op

	_ [32]byte // keep workers' hot state apart
}

// ID returns the worker's stable index; structures use it to key
// per-worker auxiliary state.
func (w *Worker) ID() int { return w.id }

// System returns the epoch system this worker belongs to.
func (w *Worker) System() *System { return w.sys }

// BeginOp registers the calling thread as active in the current epoch and
// begins tracking its NVM writes. It returns the operation's epoch.
// Operations are confined to a single epoch: if the operation later
// observes a block from a newer epoch it must AbortOp and restart.
func (w *Worker) BeginOp() uint64 {
	for {
		e := w.sys.global.Load()
		w.ann.Store(e)
		// Revalidate: if the advancer moved past e between the load and
		// the announcement it may not have waited for us; re-announce.
		if w.sys.global.Load() == e {
			w.opEpoch = e
			buf := &w.bufs[e%numSlots]
			w.persistMark = len(buf.persist.items)
			w.retireMark = len(buf.retire.items)
			return e
		}
		w.ann.Store(0)
		w.sys.leftEpoch()
	}
}

// OpEpoch returns the epoch of the operation in progress.
func (w *Worker) OpEpoch() uint64 { return w.opEpoch }

// EndOp schedules the operation's tracked writes for persistence and its
// retirements for the journal, and disassociates the worker from its epoch.
// Both are published to the flusher's early pass, which this worker wakes
// once its published write-back backlog reaches the threshold the flusher
// last set, and which it waits for, outside the operation, once the backlog
// reaches twice that (early.go).
func (w *Worker) EndOp() {
	buf := &w.bufs[w.opEpoch%numSlots]
	buf.retire.publish()
	at := w.sys.earlyAt.Load()
	if buf.persist.publish() && buf.persist.backlog() >= at {
		select {
		case w.sys.doorbell <- struct{}{}:
		default: // a ring is already pending
		}
	}
	w.ann.Store(0)
	w.sys.leftEpoch()
	if buf.persist.backlog()-at >= at {
		w.sys.awaitEarlyPass(&buf.persist)
	}
}

// AbortOp disassociates the worker from its epoch and discards the blocks
// tracked and retired since BeginOp. Structures call it when restarting an
// operation in a newer epoch (the OldSeeNewException path of Listing 1).
func (w *Worker) AbortOp() {
	buf := &w.bufs[w.opEpoch%numSlots]
	buf.persist.items = buf.persist.items[:w.persistMark]
	buf.retire.items = buf.retire.items[:w.retireMark]
	w.ann.Store(0)
	w.sys.leftEpoch()
}

// PNew allocates an NVM block whose payload holds at least payloadWords
// words. The block is born with an invalid epoch number and is stamped
// with a real epoch only when an operation is about to use it
// (SetEpochTx). Allocation flushes the block header, so PNew must not be
// called inside an operation's body, in either of its modes; it panics if
// it is.
func (w *Worker) PNew(payloadWords int, tag uint8) Block {
	if w.inTxn {
		panic("epoch: PNew inside a transaction body would abort it (or flush under a session's line locks); preallocate outside (Listing 1)")
	}
	b := w.sys.alloc.AllocWords(payloadWords, tag)
	return Block{sys: w.sys, addr: b}
}

// PDelete immediately reclaims a block, returning it to the allocator.
// Only blocks that were never visible to other threads (e.g. preallocated
// blocks that will not be used) may be deleted this way; visible blocks
// must go through PRetire. PDelete flushes allocator metadata and so also
// must not run inside a transaction body.
func (w *Worker) PDelete(b Block) {
	if w.inTxn {
		panic("epoch: PDelete inside a transaction body would abort it (or flush under a session's line locks)")
	}
	w.sys.alloc.Free(b.addr)
}

// PTrack tracks a block in the current operation's epoch: its contents
// will be flushed by the background persister — when the epoch closes, or
// earlier, once the operation has ended, by an early pass (early.go). Call
// it after the transaction that made the block visible has committed, and
// again after every later store to the block in the same epoch (an
// in-place update): an early pass may already have written the block back,
// and only a tracking after the store puts it in the closing flush.
func (w *Worker) PTrack(b Block) {
	buf := &w.bufs[w.opEpoch%numSlots]
	buf.persist.add(b.addr)
}

// PRetire tracks a block for future reclamation: it marks the block
// DELETED in the current operation's epoch and defers the actual free
// until that epoch has persisted (two epochs later). The mark is one store
// to the volatile view — what makes the retirement durable, and records
// its epoch, is the record the flusher writes to the retire journal by the
// time the epoch closes — but a neighbour's flush or an eviction may still carry
// it to the media, where recovery's DELETED branch asks the journal whether
// the deletion persisted. Call PRetire after the transaction
// that unlinked the block has committed; exactly one operation may retire
// a given block.
func (w *Worker) PRetire(b Block) {
	al := w.sys.alloc
	hdr := al.ReadHeader(b.addr)
	hdr.Status = palloc.Deleted
	al.WriteHeader(b.addr, hdr)
	buf := &w.bufs[w.opEpoch%numSlots]
	buf.retire.add(b.addr)
	w.sys.retired.Add(1)
}

// InTxn reports whether the worker is currently inside a (simulated)
// hardware transaction or a slow-path session.
func (w *Worker) InTxn() bool { return w.inTxn }

// SetSpan attaches a sampled request span to the worker for the duration
// of the current operation (nil detaches). Like the worker itself it is
// single-goroutine state; the service layer brackets each request with
// SetSpan(sp) / SetSpan(nil).
func (w *Worker) SetSpan(sp *obs.Span) { w.span = sp }

// Attempt runs body as one HTM attempt with the worker marked in-txn, so
// that misuse of PNew/PDelete inside the transaction is caught; any span
// attached via SetSpan receives the attempt's outcome. Structures use Run.
func (w *Worker) Attempt(tm *htm.TM, body func(tx *htm.Tx)) htm.Result {
	w.inTxn = true
	defer func() { w.inTxn = false }()
	res := tm.Attempt(body)
	w.span.RecordAttempt(obs.Outcome(res.Cause))
	return res
}

// Run is htm.TM.Run routed through the worker: the standard way structures
// combine HTM with the epoch system. The worker stays marked in-txn across
// the attempts and the session alike — PNew/PDelete flush, which aborts a
// transaction and, in a session, would run while holding line locks — and
// the attached span receives each attempt's outcome. A nil worker (a
// structure flavor with no epoch system) runs body on the TM directly.
func (w *Worker) Run(tm *htm.TM, preWalk func(), body func(tx *htm.Tx)) htm.Result {
	if w == nil {
		return tm.Run(nil, preWalk, body)
	}
	w.inTxn = true
	defer func() { w.inTxn = false }()
	return tm.Run(w.span, preWalk, body)
}
