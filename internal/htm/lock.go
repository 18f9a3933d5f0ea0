package htm

import (
	"runtime"
	"sync/atomic"
)

// drainCommits waits until no commit or direct store holds a versioned
// lock, i.e. every write-back that was in flight when the caller published
// its own lock has finished. Unlike real HTM, whose commits are
// instantaneous, this simulation's commits write back over a window.
//
// The wait is one counter spin: tm.held tracks outstanding lock windows,
// incremented before the first slot CAS of a commit or direct store.
func (tm *TM) drainCommits() {
	for spin := 0; tm.held.Load() != 0; spin++ {
		yieldBackoff(spin)
	}
}

// yieldBackoff yields for an exponentially growing, bounded window —
// 1<<min(spin, 6) Gosched calls — so long spins escalate from polite to
// patient without unbounded delay once the awaited condition clears.
func yieldBackoff(spin int) {
	shift := spin
	if shift > 6 {
		shift = 6
	}
	for i := 0; i < 1<<shift; i++ {
		runtime.Gosched()
	}
}

// lockSlotDirect opens a one-slot lock window over p's line: the slot is
// locked with a fresh transaction id so concurrent commits see it busy,
// and tm.held is raised so drainCommits accounts for the window. The
// caller stores and then closes the window with unlockSlotDirect.
func (tm *TM) lockSlotDirect(p *uint64) *atomic.Uint64 {
	slot := &tm.table[tm.slotIdx(lineKey(p))]
	owner := tm.txIDs.Add(1)<<1 | 1
	for {
		cur := slot.Load()
		if cur&1 == 0 {
			// Raise held before the CAS so an open window is never
			// invisible to drainCommits, but not while merely spinning —
			// a spin on a fallback-held slot must not stall a session
			// that is itself draining commits.
			tm.held.Add(1)
			if slot.CompareAndSwap(cur, owner) {
				return slot
			}
			tm.held.Add(-1)
		}
		runtime.Gosched()
	}
}

func (tm *TM) unlockSlotDirect(slot *atomic.Uint64) {
	slot.Store(tm.clock.Add(1) << 1)
	tm.held.Add(-1)
}

// DirectStore performs a non-transactional store to a DRAM word that is
// visible to the conflict-detection mechanism: it bumps the line's version,
// so a transaction that read the line fails validation. It does not make a
// multi-word update atomic; callers own that (single-threaded recovery,
// words no session or transaction writes concurrently).
func (tm *TM) DirectStore(p *uint64, v uint64) {
	slot := tm.lockSlotDirect(p)
	atomic.StoreUint64(p, v)
	tm.unlockSlotDirect(slot)
}

// DirectLoad performs a non-transactional load. Plain atomic semantics are
// sufficient: transactional and session writes only become visible at
// commit/finish.
func (tm *TM) DirectLoad(p *uint64) uint64 { return atomic.LoadUint64(p) }
