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
// A session is a mode of Tx: the function an operation passes as its
// transaction body is also, unchanged, its session body. In session mode
// every access acquires the versioned-lock slot covering the touched cache
// line — the same table, and the same global slot order, that
// transactional commit uses — so a fast-path transaction conflicts with
// the slow path only when their line sets actually overlap:
//
//   - Reads lock their line too (two-phase locking, so a transaction
//     cannot slip a write between a session read and its finish — that
//     would be write skew).
//   - Writes are buffered, like a transaction's, and applied when the
//     session finishes; released slots covering written lines take a
//     fresh version, all others revert to their pre-lock version. A
//     session can therefore be abandoned (Tx.Abort) or restarted at any
//     point before finish with no trace in memory.
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
	// fbOwnerBit marks a versioned-lock slot as held by a session rather
	// than a committing transaction, so fast-path aborts caused by the
	// slow path are countable. Transaction owner words are id<<1|1 with
	// ids from a counter; the top bit is free for eons.
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

// InSession reports whether the body is running as a slow-path session
// rather than as a transaction attempt. Bodies are mode-blind except where
// the two modes must enter a structure differently (a word every
// transaction subscribes to must not be line-locked by every session).
func (tx *Tx) InSession() bool { return tx.sess }

// sessionWrite returns the session's buffered write for p, or nil. Session
// write sets are small (an operation's few mutated words), so a linear
// scan beats a hash set here.
func (tx *Tx) sessionWrite(p *uint64) *writeEntry {
	for i := range tx.writes {
		if tx.writes[i].p == p {
			return &tx.writes[i]
		}
	}
	return nil
}

// lockLine acquires the versioned-lock slot covering p's line, keeping
// the held set (lockOrder, lockPrev) sorted. Bounded waiting + whole-session
// restart keep the lock graph acyclic; see the comment above.
func (tx *Tx) lockLine(p *uint64) {
	tm := tx.tm
	idx := tm.slotIdx(lineKey(p))
	n, found := slices.BinarySearch(tx.lockOrder, idx)
	if found {
		return
	}
	slot := &tm.table[idx]
	limit := fbSpinInOrder
	if n < len(tx.lockOrder) {
		limit = fbSpinOutOfOrder
	}
	for spins := 0; ; spins++ {
		cur := slot.Load()
		if cur&1 == 0 && slot.CompareAndSwap(cur, tx.owner) {
			tx.lockOrder = slices.Insert(tx.lockOrder, n, idx)
			tx.lockPrev = slices.Insert(tx.lockPrev, n, cur)
			tm.stats.fallbackLines.Add(1)
			return
		}
		if !tx.escalated && spins >= limit {
			tx.abort(CauseConflict, 0) // restart the whole session
		}
		runtime.Gosched()
	}
}

// sessionLoad reads a word, locking its line for the rest of the session.
func (tx *Tx) sessionLoad(p *uint64, h *nvm.Heap, a nvm.Addr) uint64 {
	if we := tx.sessionWrite(p); we != nil {
		return we.val
	}
	tx.lockLine(p)
	if h != nil {
		return h.Load(a)
	}
	return atomic.LoadUint64(p)
}

// sessionStore buffers a write, locking its line. The write is applied
// when the session finishes.
func (tx *Tx) sessionStore(we writeEntry) {
	tx.lockLine(we.p)
	if prev := tx.sessionWrite(we.p); prev != nil {
		*prev = we
		return
	}
	tx.writes = append(tx.writes, we)
}

// DrainCommits waits until every in-flight commit write-back has
// finished. Per-line locking already serializes the session against
// commits on the lines it touches; this barrier is for sessions about to
// mutate structure state that transactions read *without* the conflict
// tables (e.g. spash's directory pointers), after locking the word those
// transactions validate. A transaction attempt cannot wait on other
// commits, so calling it outside a session panics.
func (tx *Tx) DrainCommits() {
	if !tx.sess {
		panic("htm: DrainCommits outside a session")
	}
	tx.tm.drainCommits()
}

// release lets go of every held slot and drops the buffered writes. After
// a finish the slots covering those writes take a fresh version; the rest
// — and all of them when the session is abandoned or restarts — revert to
// their pre-lock versions, invisible to any reader.
func (tx *Tx) release(finished bool) {
	tm := tx.tm
	if n := len(tx.lockOrder); n != 0 {
		tx.written = slices.Grow(tx.written[:0], n)[:n]
		clear(tx.written)
		var wv uint64
		if finished && len(tx.writes) > 0 {
			for i := range tx.writes {
				if j, ok := slices.BinarySearch(tx.lockOrder, tm.slotIdx(lineKey(tx.writes[i].p))); ok {
					tx.written[j] = true
				}
			}
			wv = tm.clock.Add(1)
		}
		for i, idx := range tx.lockOrder {
			if tx.written[i] {
				tm.table[idx].Store(wv << 1)
			} else {
				tm.table[idx].Store(tx.lockPrev[i])
			}
		}
		tx.lockOrder = tx.lockOrder[:0]
		tx.lockPrev = tx.lockPrev[:0]
	}
	tx.dropWrites()
}

// closeSession ends a session that holds no slots any more: it leaves the
// escalation mutex if the session took it, and the Tx goes back to the
// pool.
func (tm *TM) closeSession(tx *Tx) {
	if tx.escalated {
		tm.fbMu.Unlock()
	}
	tx.restarts, tx.escalated = 0, false
	tm.put(tx)
}

// RunSession runs body as one slow-path session, with no transaction
// attempt first: body's accesses lock only the lines they touch. body may
// be re-executed (after a session restart) and must therefore reach shared
// state only through tx and reset its outputs on entry, exactly as a
// transaction body must. The result is committed unless body abandoned
// the session: Abort(code) gives Result{Cause: CauseExplicit, Code: code},
// Flush and Fence give CausePersistOp, and in both cases every slot is
// back at its pre-lock version and no write was applied. A session is not
// an attempt: it draws nothing from the injection stream and is counted
// only by the Fallback* statistics.
func (tm *TM) RunSession(body func(tx *Tx)) Result {
	tx := tm.pool.Get().(*Tx)
	tx.reset(fbOwnerBit|tm.txIDs.Add(1)<<1|1, 0)
	tx.sess = true
	tm.stats.fallbackAcquires.Add(1)
	for {
		res, ok := tm.runBody(tx, body)
		if ok {
			for i := range tx.writes {
				tx.writes[i].apply()
			}
			res = Result{Committed: true}
		}
		tx.release(ok)
		if ok || res.Cause != CauseConflict {
			tm.closeSession(tx)
			return res
		}
		tx.restarts++
		tm.stats.fallbackRestarts.Add(1)
		if !tx.escalated && tx.restarts >= fbEscalateAfter {
			tm.fbMu.Lock()
			tx.escalated = true
		}
		tm.backoff(tx.restarts)
	}
}

// Run is the one retry-then-session driver (Listing 1's retry loop): it
// attempts body as a transaction while the TM's budget lasts, then runs
// the same body once as a session. Per abort cause:
//
//   - explicit aborts, from either mode, return to the caller, which owns
//     their meaning (restart in a newer epoch, split, re-find, fail);
//   - CauseMemType runs preWalk (when there is one) and marks the
//     following attempts as pre-walked;
//   - every abort, MemType included, counts against the budget.
//
// There is no backoff between attempts. sp, when non-nil, receives each
// attempt's outcome. The result is committed whichever mode finished the
// body; Stats tells them apart.
func (tm *TM) Run(sp *obs.Span, preWalk func(), body func(tx *Tx)) Result {
	preWalked := false
	for retries := 1; ; retries++ {
		res := tm.attempt(sp, body, preWalked)
		if res.Committed || res.Cause == CauseExplicit {
			return res
		}
		if retries >= tm.budget() {
			return tm.RunSession(body)
		}
		if res.Cause == CauseMemType && preWalk != nil {
			preWalk()
			preWalked = true
		}
	}
}
