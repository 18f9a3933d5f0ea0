package htm

import (
	"runtime"
	"slices"
	"sync/atomic"

	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// The slow path: fine-grained two-phase-locking sessions.
//
// A fallback operation opens a Fallback session and performs every shared
// access through it. The session acquires the versioned-lock slot covering
// each touched cache line — the same table, and the same global slot
// order, that transactional commit uses — so a fast-path transaction
// conflicts with the slow path only when their line sets actually overlap:
//
//   - Reads lock their line too (two-phase locking, so a transaction
//     cannot slip a write between a fallback read and its commit — that
//     would be write skew).
//   - Writes are buffered, like a transaction's, and applied when the
//     session finishes; released slots covering written lines take a
//     fresh version, all others revert to their pre-lock version. A
//     session can therefore be abandoned and restarted at any point
//     before finish with no trace in memory.
//
// Deadlock/livelock discipline:
//
//   - Transactional commit never blocks: it try-locks and aborts. A
//     commit can therefore never participate in a cycle.
//   - A session's blocking waits are bounded: after a bounded spin the
//     session restarts, releasing everything it holds (waits on slots
//     above its current maximum get a longer budget, because they cannot
//     form a cycle; out-of-order waits get a short one).
//   - A session that keeps restarting escalates to the TM-wide fallback
//     mutex. The escalated holder is unique, so it may block indefinitely
//     on any slot: every other holder is a bounded commit write-back or a
//     non-escalated session that restarts (releasing its slots) in
//     bounded time. Escalation grabs the mutex only after releasing all
//     slots, so there is no hold-and-wait on the mutex itself.

const (
	// fbOwnerBit marks a versioned-lock slot as held by a fallback
	// session rather than a committing transaction, so fast-path aborts
	// caused by the slow path are countable. Transaction owner words are
	// id<<1|1 with ids from a counter; the top bit is free for eons.
	fbOwnerBit = uint64(1) << 63

	// fbSpinInOrder bounds the wait for a slot above the session's
	// current maximum (a wait that cannot deadlock but must stay bounded
	// so the escalated holder can always make progress).
	fbSpinInOrder = 256
	// fbSpinOutOfOrder bounds the wait for a slot below the session's
	// current maximum, where waiting could cycle with another session.
	fbSpinOutOfOrder = 32
	// fbEscalateAfter is the number of whole-session restarts after which
	// the session serializes behind the TM-wide fallback mutex.
	fbEscalateAfter = 8
)

// Fallback is one slow-path session. It is only valid inside the function
// passed to RunFallback and must not escape it: sessions are pooled on the
// TM, and the next RunFallback reuses this one's slices.
type Fallback struct {
	tm *TM

	owner     uint64   // slot word while holding: fbOwnerBit | id<<1 | 1
	slots     []uint64 // acquired slot indices, ascending
	prev      []uint64 // pre-lock slot versions, parallel to slots
	written   []bool   // scratch for release: slot covers a buffered write
	writes    []writeEntry
	restarts  int
	escalated bool
}

type fbRestart struct{ f *Fallback }

// lookup returns the buffered write for p, or nil. Fallback write sets
// are small (an operation's few mutated words), so a linear scan beats a
// hash set here.
func (f *Fallback) lookup(p *uint64) *writeEntry {
	for i := range f.writes {
		if f.writes[i].p == p {
			return &f.writes[i]
		}
	}
	return nil
}

// lockLine acquires the versioned-lock slot covering p's line, keeping
// the held set sorted. Bounded waiting + whole-session restart keep the
// lock graph acyclic; see the package comment above.
func (f *Fallback) lockLine(p *uint64) {
	tm := f.tm
	idx := tm.slotIdx(lineKey(p))
	n, found := slices.BinarySearch(f.slots, idx)
	if found {
		return
	}
	slot := &tm.table[idx]
	limit := fbSpinInOrder
	if n < len(f.slots) {
		limit = fbSpinOutOfOrder
	}
	for spins := 0; ; spins++ {
		cur := slot.Load()
		if cur&1 == 0 && slot.CompareAndSwap(cur, f.owner) {
			f.slots = slices.Insert(f.slots, n, idx)
			f.prev = slices.Insert(f.prev, n, cur)
			tm.stats.fallbackLines.Add(1)
			tm.obs.MetricAdd(obs.MFallbackLines, f.owner, 1)
			return
		}
		if !f.escalated && spins >= limit {
			panic(fbRestart{f})
		}
		runtime.Gosched()
	}
}

// Load reads a DRAM word, locking its line for the rest of the session.
func (f *Fallback) Load(p *uint64) uint64 {
	if we := f.lookup(p); we != nil {
		return we.val
	}
	f.lockLine(p)
	return atomic.LoadUint64(p)
}

// LoadAddr reads a word of simulated NVM, locking its line.
func (f *Fallback) LoadAddr(h *nvm.Heap, a nvm.Addr) uint64 {
	p := h.WordPtr(a)
	if we := f.lookup(p); we != nil {
		return we.val
	}
	f.lockLine(p)
	return h.Load(a)
}

// Store buffers a write to a DRAM word, locking its line. The write is
// applied when the session finishes.
func (f *Fallback) Store(p *uint64, v uint64) {
	f.lockLine(p)
	f.put(writeEntry{p: p, val: v})
}

// StoreAddr buffers a write to a word of simulated NVM, locking its line.
// On finish the write goes through the heap so dirty-line tracking stays
// correct.
func (f *Fallback) StoreAddr(h *nvm.Heap, a nvm.Addr, v uint64) {
	p := h.WordPtr(a)
	f.lockLine(p)
	f.put(writeEntry{p: p, val: v, heap: h, addr: a})
}

func (f *Fallback) put(we writeEntry) {
	if prev := f.lookup(we.p); prev != nil {
		*prev = we
		return
	}
	f.writes = append(f.writes, we)
}

// DrainCommits waits until every in-flight commit write-back has
// finished. Per-line locking already serializes the session against
// commits on the lines it touches; this barrier is for sessions about to
// mutate structure state that transactions read *without* the conflict
// tables (e.g. spash's directory pointers), after locking the word those
// transactions validate.
func (f *Fallback) DrainCommits() { f.tm.drainCommits() }

// release lets go of every held slot. Slots covering buffered writes take
// a fresh version (after finish applied them); the rest revert to their
// pre-lock versions, invisible to any reader.
func (f *Fallback) release(committed bool) {
	tm := f.tm
	if len(f.slots) == 0 {
		return
	}
	f.written = slices.Grow(f.written[:0], len(f.slots))[:len(f.slots)]
	clear(f.written)
	if committed {
		for i := range f.writes {
			if n, ok := slices.BinarySearch(f.slots, tm.slotIdx(lineKey(f.writes[i].p))); ok {
				f.written[n] = true
			}
		}
	}
	var wv uint64
	if committed && len(f.writes) > 0 {
		wv = tm.clock.Add(1)
	}
	for i, idx := range f.slots {
		if f.written[i] {
			tm.table[idx].Store(wv << 1)
		} else {
			tm.table[idx].Store(f.prev[i])
		}
	}
	f.slots = f.slots[:0]
	f.prev = f.prev[:0]
}

// finish applies the buffered writes and publishes the new line versions.
func (f *Fallback) finish() {
	for i := range f.writes {
		we := &f.writes[i]
		if we.heap != nil {
			we.heap.Store(we.addr, we.val)
		} else {
			atomic.StoreUint64(we.p, we.val)
		}
	}
	f.release(true)
}

// RunFallback runs fn as one slow-path session: fn's accesses through the
// session lock only the lines they touch. fn may be re-executed (after a
// session restart) and must therefore reach shared state only through the
// session.
func (tm *TM) RunFallback(fn func(f *Fallback)) {
	f := tm.fbPool.Get().(*Fallback)
	f.owner = fbOwnerBit | tm.txIDs.Add(1)<<1 | 1
	tm.stats.fallbackAcquires.Add(1)
	tm.obs.MetricAdd(obs.MFallbackAcquires, f.owner, 1)
	for !tm.runFallbackBody(f, fn) {
		f.release(false)
		f.writes = f.writes[:0]
		f.restarts++
		tm.stats.fallbackRestarts.Add(1)
		if !f.escalated && f.restarts >= fbEscalateAfter {
			tm.fbMu.Lock()
			f.escalated = true
		}
		tm.backoff(f.restarts)
	}
	f.finish()
	tm.closeFallback(f)
}

// closeFallback ends a session that holds no slots any more: it leaves the
// escalation mutex if the session took it, and goes back to the pool empty.
func (tm *TM) closeFallback(f *Fallback) {
	if f.escalated {
		tm.fbMu.Unlock()
	}
	f.writes = f.writes[:0]
	f.restarts, f.escalated = 0, false
	tm.fbPool.Put(f)
}

// runFallbackBody executes fn, converting a restart panic into done ==
// false. A foreign panic releases the held slots and closes the session
// before propagating, so the table is never left locked.
func (tm *TM) runFallbackBody(f *Fallback, fn func(*Fallback)) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			if rs, ok := r.(fbRestart); ok && rs.f == f {
				return
			}
			f.release(false)
			tm.closeFallback(f)
			panic(r)
		}
	}()
	fn(f)
	return true
}

// Run executes body with a simple default policy: retry on transient aborts
// with backoff while the TM's Budget for maxRetries lasts, go straight to
// the slow path on deterministic aborts (capacity, explicit), and finally
// run fallback as a Fallback session. It covers the common case; code that
// needs Listing-1-style custom abort handling uses Attempt, Budget and
// RunFallback directly. It returns true if the transactional path
// committed, false if the fallback session ran.
func (tm *TM) Run(maxRetries int, body func(tx *Tx), fallback func(f *Fallback)) bool {
	var opts []AttemptOption
retry:
	for retries := 0; retries < tm.Budget(maxRetries); {
		res := tm.Attempt(body, opts...)
		if res.Committed {
			return true
		}
		switch res.Cause {
		case CauseMemType:
			opts = []AttemptOption{PreWalked()}
			retries++
		case CauseCapacity, CauseExplicit:
			break retry
		default:
			retries++
			tm.backoff(retries)
		}
	}
	tm.RunFallback(fallback)
	return false
}
