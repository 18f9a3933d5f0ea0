// Package bdhash implements the buffered-durable HTM hash table of the
// paper's Listing 1 — the tutorial structure for the BDL + HTM strategy.
//
// The bucket array lives in DRAM and holds addresses of KV blocks in NVM.
// Every operation runs inside one hardware transaction (with a slow-path
// htm.Fallback session after repeated aborts), brackets itself with
// BeginOp/EndOp, and follows the epoch discipline:
//
//   - a preallocated NVM block (with invalid epoch) is kept per worker so
//     that allocation never happens inside the transaction;
//   - the block is stamped with the operation's epoch inside the
//     transaction, by the branch that links it and only by that branch
//     (a stamped block the transaction did not link is a phantom insert
//     at recovery);
//   - a block from an older epoch is replaced out-of-place and retired;
//     a block from the *current* epoch is updated in place (pSet);
//   - finding a block from a *newer* epoch aborts with OldSeeNewCode and
//     restarts the operation in the current epoch;
//   - persistence (PTrack) and reclamation (PRetire) happen after the
//     transaction commits.
//
// After a crash, the DRAM index is rebuilt by scanning recovered blocks.
package bdhash

import (
	"fmt"
	"sync/atomic"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

const (
	// BucketSize is the number of slots per bucket (one cache line of
	// DRAM per bucket).
	BucketSize = 8
	// maxProbeBuckets is the linear-probing window: an operation scans
	// at most this many consecutive buckets.
	maxProbeBuckets = 4
	// maxRetries bounds transactional retries before the fallback path.
	maxRetries = 32
)

// Table is a buffered-durable hash table mapping uint64 keys to uint64
// values. All methods are safe for concurrent use; each goroutine passes
// its own epoch.Worker.
type Table struct {
	sys *epoch.System
	tm  *htm.TM
	tag uint8

	nBuckets uint64 // power of two
	slots    []uint64

	count atomic.Int64

	// removals guards the empty-slot insert path against acting on an
	// absence created by a newer-epoch removal (see epoch.RemovalStamps).
	removals epoch.RemovalStamps

	obs *obs.Recorder

	perW []wstate
}

// SetObs attaches a telemetry recorder: every Get/Insert/Remove records
// its latency on it. Attach before the table is shared between
// goroutines; nil disables recording.
func (t *Table) SetObs(r *obs.Recorder) { t.obs = r }

type wstate struct {
	prealloc epoch.Block
	_        [6]uint64
}

// New creates a table with capacity for roughly `capacity` keys (sized to
// a conservative load factor). tag distinguishes this table's blocks from
// other structures sharing the heap during recovery.
func New(sys *epoch.System, tm *htm.TM, capacity int, tag uint8) *Table {
	nBuckets := uint64(1)
	for nBuckets*BucketSize < uint64(capacity)*2 {
		nBuckets *= 2
	}
	return &Table{
		sys:      sys,
		tm:       tm,
		tag:      tag,
		nBuckets: nBuckets,
		slots:    make([]uint64, nBuckets*BucketSize),
		perW:     make([]wstate, 512),
	}
}

func hash64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return k ^ k>>33
}

func (t *Table) slotRange(k uint64) (start, n uint64) {
	b := hash64(k) & (t.nBuckets - 1)
	return b * BucketSize, maxProbeBuckets * BucketSize
}

func (t *Table) slotAt(i uint64) *uint64 {
	return &t.slots[i&(t.nBuckets*BucketSize-1)]
}

// Len returns the number of keys in the table.
func (t *Table) Len() int { return int(t.count.Load()) }

// insertOutcome captures the decisions made inside one transaction
// attempt so they can be applied after commit.
type insertOutcome struct {
	usedPrealloc bool
	retire       epoch.Block
	persist      epoch.Block
	replaced     bool
	full         bool
}

// Insert adds or updates a key (upsert). It reports whether an existing
// value was replaced. Insert panics if the probe window is exhausted —
// size the table for the expected key population.
func (t *Table) Insert(w *epoch.Worker, k, v uint64) bool {
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpInsert, k, t.obs.Now())
	}
	ws := &t.perW[w.ID()]
retryRegist:
	opEpoch := w.BeginOp()
	if ws.prealloc.IsNil() {
		ws.prealloc = w.NewKV(t.tag) // skip allocation if one is available
	}
	newBlk := ws.prealloc
	newBlk.InitKV(k, v) // initialize block, epoch reset to invalid

	var out insertOutcome
	retries := 0
	preWalked := false
retryTxn:
	out = insertOutcome{}
	var opts []htm.AttemptOption
	if preWalked {
		opts = append(opts, htm.PreWalked())
	}
	res := w.Attempt(t.tm, func(tx *htm.Tx) {
		t.insertBody(tx, w, opEpoch, k, v, newBlk, &out)
	}, opts...)
	switch {
	case res.Committed:
	case res.Cause == htm.CauseExplicit && res.Code == epoch.OldSeeNewCode:
		w.AbortOp() // restart in the (newer) current epoch
		goto retryRegist
	case res.Cause == htm.CauseMemType:
		t.preWalk(k)
		preWalked = true
		retries++
		goto retryTxn
	default:
		retries++
		if retries < t.tm.Budget(maxRetries) {
			goto retryTxn
		}
		if !t.insertFallback(w, opEpoch, k, v, newBlk, &out) {
			w.AbortOp()
			goto retryRegist
		}
	}
	if out.full {
		w.AbortOp()
		panic(fmt.Sprintf("bdhash: probe window full inserting key %d; table under-sized", k))
	}
	if !out.retire.IsNil() {
		w.PRetire(out.retire)
	}
	if !out.persist.IsNil() {
		w.PTrack(out.persist)
	}
	if out.usedPrealloc {
		ws.prealloc = epoch.Block{}
	}
	if !out.replaced {
		t.count.Add(1)
	}
	w.EndOp()
	return out.replaced
}

// insertBody is the transactional insert of Listing 1 (lines 17-37).
func (t *Table) insertBody(tx *htm.Tx, w *epoch.Worker, opEpoch, k, v uint64, newBlk epoch.Block, out *insertOutcome) {
	start, n := t.slotRange(k)
	var empty *uint64
	for i := uint64(0); i < n; i++ {
		sp := t.slotAt(start + i)
		addr := tx.Load(sp)
		if addr == 0 {
			if empty == nil {
				empty = sp
			}
			continue
		}
		b := t.sys.BlockAt(nvm.Addr(addr))
		if b.KeyTx(tx) != k {
			continue
		}
		// Found: compare epochs (Listing 1 lines 21-29).
		be := b.EpochTx(tx)
		switch {
		case be > opEpoch:
			// Never overwrite a newer block from an old epoch.
			tx.Abort(epoch.OldSeeNewCode)
		case be < opEpoch:
			// Out-of-place update: swap in the preallocated block.
			newBlk.SetEpochTx(tx, opEpoch)
			tx.Store(sp, uint64(newBlk.Addr()))
			out.retire = b
			out.persist = newBlk
			out.usedPrealloc = true
		default:
			// Same epoch: in-place update (pSet). The block is already
			// tracked in this epoch, so no re-tracking is needed.
			b.SetValueTx(tx, v)
		}
		out.replaced = true
		return
	}
	if empty == nil {
		out.full = true
		return
	}
	// Fresh insert: no block to epoch-compare, so the absence itself must
	// be validated against newer removals.
	t.removals.CheckTx(tx, k, opEpoch)
	newBlk.SetEpochTx(tx, opEpoch)
	tx.Store(empty, uint64(newBlk.Addr()))
	out.persist = newBlk
	out.usedPrealloc = true
}

// insertFallback runs the insert as a slow-path session. It returns false
// if the operation must restart in a newer epoch.
func (t *Table) insertFallback(w *epoch.Worker, opEpoch, k, v uint64, newBlk epoch.Block, out *insertOutcome) bool {
	ok := true
	t.tm.RunFallback(func(f *htm.Fallback) {
		// The session body may be re-executed after a lock-order restart:
		// reset all outputs and reach shared state only through f.
		ok = true
		*out = insertOutcome{}
		start, n := t.slotRange(k)
		var empty *uint64
		for i := uint64(0); i < n; i++ {
			sp := t.slotAt(start + i)
			addr := f.Load(sp)
			if addr == 0 {
				if empty == nil {
					empty = sp
				}
				continue
			}
			b := t.sys.BlockAt(nvm.Addr(addr))
			if b.KeyF(f) != k {
				continue
			}
			be := b.EpochF(f)
			switch {
			case be > opEpoch:
				ok = false // OldSeeNew: restart outside
				return
			case be < opEpoch:
				newBlk.SetEpochF(f, opEpoch)
				f.Store(sp, uint64(newBlk.Addr()))
				out.retire = b
				out.persist = newBlk
				out.usedPrealloc = true
			default:
				b.SetValueF(f, v)
			}
			out.replaced = true
			return
		}
		if empty == nil {
			out.full = true
			return
		}
		if !t.removals.OkF(f, k, opEpoch) {
			ok = false // absence created by a newer-epoch removal
			return
		}
		newBlk.SetEpochF(f, opEpoch)
		f.Store(empty, uint64(newBlk.Addr()))
		out.persist = newBlk
		out.usedPrealloc = true
	})
	return ok
}

// preWalk touches the key's probe window non-transactionally, the paper's
// mitigation for MEMTYPE aborts (Sec. 4.1).
func (t *Table) preWalk(k uint64) {
	start, n := t.slotRange(k)
	var sink uint64
	for i := uint64(0); i < n; i++ {
		addr := t.tm.DirectLoad(t.slotAt(start + i))
		if addr != 0 {
			sink += t.sys.Heap().Load(nvm.Addr(addr))
		}
	}
	_ = sink
}

// Get returns the value stored under k.
func (t *Table) Get(k uint64) (uint64, bool) { return t.GetW(nil, k) }

// GetW is Get routed through an epoch worker so a service request's
// sampled span (worker.SetSpan) sees the lookup's HTM attempts; w may be
// nil (plain Get).
func (t *Table) GetW(w *epoch.Worker, k uint64) (uint64, bool) {
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpLookup, k, t.obs.Now())
	}
	retries := 0
	for {
		var v uint64
		var ok bool
		res := t.attemptW(w, func(tx *htm.Tx) {
			v, ok = 0, false
			start, n := t.slotRange(k)
			for i := uint64(0); i < n; i++ {
				addr := tx.Load(t.slotAt(start + i))
				if addr == 0 {
					continue
				}
				b := t.sys.BlockAt(nvm.Addr(addr))
				if b.KeyTx(tx) == k {
					v, ok = b.ValueTx(tx), true
					return
				}
			}
		})
		if res.Committed {
			return v, ok
		}
		if retries++; retries >= t.tm.Budget(maxRetries) {
			// A long slow-path writer parked on this probe window would
			// otherwise abort this loop indefinitely; a read-only session
			// waits its turn per line instead.
			t.tm.RunFallback(func(f *htm.Fallback) {
				v, ok = 0, false
				start, n := t.slotRange(k)
				for i := uint64(0); i < n; i++ {
					addr := f.Load(t.slotAt(start + i))
					if addr == 0 {
						continue
					}
					b := t.sys.BlockAt(nvm.Addr(addr))
					if b.KeyF(f) == k {
						v, ok = b.ValueF(f), true
						return
					}
				}
			})
			return v, ok
		}
	}
}

// attemptW routes one HTM attempt through w when there is one. The two
// calls are static, so the body closure stays on the caller's stack.
func (t *Table) attemptW(w *epoch.Worker, body func(tx *htm.Tx)) htm.Result {
	if w != nil {
		return w.Attempt(t.tm, body)
	}
	return t.tm.Attempt(body)
}

// Remove deletes a key, reporting whether it was present.
func (t *Table) Remove(w *epoch.Worker, k uint64) bool {
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpRemove, k, t.obs.Now())
	}
retryRegist:
	opEpoch := w.BeginOp()
	var retire epoch.Block
	var removed bool
	retries := 0
retryTxn:
	retire, removed = epoch.Block{}, false
	res := w.Attempt(t.tm, func(tx *htm.Tx) {
		start, n := t.slotRange(k)
		for i := uint64(0); i < n; i++ {
			sp := t.slotAt(start + i)
			addr := tx.Load(sp)
			if addr == 0 {
				continue
			}
			b := t.sys.BlockAt(nvm.Addr(addr))
			if b.KeyTx(tx) != k {
				continue
			}
			if b.EpochTx(tx) > opEpoch {
				tx.Abort(epoch.OldSeeNewCode)
			}
			t.removals.RaiseTx(tx, k, opEpoch)
			tx.Store(sp, 0)
			retire = b
			removed = true
			return
		}
		// Absent: make sure the absence is not a newer removal's work.
		t.removals.CheckTx(tx, k, opEpoch)
	})
	switch {
	case res.Committed:
	case res.Cause == htm.CauseExplicit && res.Code == epoch.OldSeeNewCode:
		w.AbortOp()
		goto retryRegist
	default:
		retries++
		if retries < t.tm.Budget(maxRetries) {
			goto retryTxn
		}
		if !t.removeFallback(w, opEpoch, k, &retire, &removed) {
			w.AbortOp()
			goto retryRegist
		}
	}
	if removed {
		w.PRetire(retire)
		t.count.Add(-1)
	}
	w.EndOp()
	return removed
}

func (t *Table) removeFallback(w *epoch.Worker, opEpoch, k uint64, retire *epoch.Block, removed *bool) bool {
	ok := true
	t.tm.RunFallback(func(f *htm.Fallback) {
		ok = true
		*retire, *removed = epoch.Block{}, false
		start, n := t.slotRange(k)
		for i := uint64(0); i < n; i++ {
			sp := t.slotAt(start + i)
			addr := f.Load(sp)
			if addr == 0 {
				continue
			}
			b := t.sys.BlockAt(nvm.Addr(addr))
			if b.KeyF(f) != k {
				continue
			}
			if b.EpochF(f) > opEpoch {
				ok = false
				return
			}
			t.removals.RaiseF(f, k, opEpoch)
			f.Store(sp, 0)
			*retire = b
			*removed = true
			return
		}
		// Absent: restart in a newer epoch if a newer removal made it so.
		ok = t.removals.OkF(f, k, opEpoch)
	})
	return ok
}

// RebuildBlock reinserts one recovered block into the DRAM index. Call it
// from the epoch.Recover rebuild callback for records carrying this
// table's tag. Recovery is single-threaded, so plain stores suffice.
func (t *Table) RebuildBlock(rec epoch.BlockRecord) {
	k := rec.Block.Key()
	start, n := t.slotRange(k)
	for i := uint64(0); i < n; i++ {
		sp := t.slotAt(start + i)
		if *sp == 0 {
			*sp = uint64(rec.Block.Addr())
			t.count.Add(1)
			return
		}
		if t.sys.BlockAt(nvm.Addr(*sp)).Key() == k {
			panic(fmt.Sprintf("bdhash: duplicate key %d in recovery (BDL invariant violated)", k))
		}
	}
	panic("bdhash: probe window full during recovery")
}

// Keys calls fn for every key/value in the table. Not linearizable; for
// tests and diagnostics.
func (t *Table) Keys(fn func(k, v uint64)) {
	for i := range t.slots {
		if a := atomic.LoadUint64(&t.slots[i]); a != 0 {
			b := t.sys.BlockAt(nvm.Addr(a))
			fn(b.Key(), b.Value())
		}
	}
}
