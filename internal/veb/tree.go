// Package veb implements the paper's first case study (Sec. 4.1): a
// concurrent van Emde Boas tree with doubly logarithmic operations,
// synchronized with hardware transactional memory in the style of
// Khalaji et al. (PPoPP'24), in two flavors:
//
//   - HTM-vEB (transient): the whole tree, values included, lives in
//     DRAM; each operation runs as one hardware transaction with a
//     slow-path session (htm.Fallback) after repeated aborts.
//   - PHTM-vEB (buffered durable): the index stays in DRAM for speed,
//     while leaf value slots hold addresses of KV blocks in NVM managed
//     by the epoch system. Operations follow the Listing-1 discipline
//     (preallocation, epoch stamping, OldSeeNew restarts, post-commit
//     tracking), and a crash recovers to a recent epoch boundary by
//     rescanning the KV blocks and rebuilding the tree.
//
// The MEMTYPE abort anomaly of the paper's Fig. 2 is handled the same
// way: after such an abort the operation performs a non-transactional
// "pre-walk" of its search path and retries.
package veb

import (
	"fmt"
	"sync/atomic"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

const maxRetries = 64

// BlockTag marks this tree's KV blocks in the shared NVM heap.
const BlockTag uint8 = 0x7E

// Config describes a tree.
type Config struct {
	// UniverseBits is log2 of the key universe (keys are in [0, 2^bits)).
	UniverseBits uint8
	// TM is the transactional memory unit. Required.
	TM *htm.TM
	// DataSys, when non-nil, makes the tree buffered durable (PHTM-vEB):
	// values live in NVM blocks managed by this epoch system.
	DataSys *epoch.System
}

// Tree is a concurrent vEB tree mapping keys in [0, 2^UniverseBits) to
// uint64 values.
type Tree struct {
	cfg   Config
	tm    *htm.TM
	sys   *epoch.System // nil for transient
	pool  *pool
	root  uint64
	count atomic.Int64

	// removals guards the fresh-insert path against acting on an absence
	// created by a newer-epoch removal (see epoch.RemovalStamps).
	removals epoch.RemovalStamps

	obs *obs.Recorder

	perW []vebWState
}

type vebWState struct {
	prealloc epoch.Block
	_        [6]uint64
}

// New creates a tree. Universe bits must be in [1, 48].
func New(cfg Config) *Tree {
	if cfg.UniverseBits == 0 || cfg.UniverseBits > 48 {
		panic(fmt.Sprintf("veb: bad universe bits %d", cfg.UniverseBits))
	}
	if cfg.TM == nil {
		panic("veb: TM required")
	}
	t := &Tree{
		cfg:  cfg,
		tm:   cfg.TM,
		sys:  cfg.DataSys,
		pool: newPool(),
		perW: make([]vebWState, 512),
	}
	t.root = t.pool.alloc(cfg.UniverseBits)
	return t
}

// Persistent reports whether the tree is the buffered-durable flavor.
func (t *Tree) Persistent() bool { return t.sys != nil }

// Len returns the number of keys.
func (t *Tree) Len() int { return int(t.count.Load()) }

// DRAMBytes approximates the DRAM consumed by the index (Table 3).
func (t *Tree) DRAMBytes() int64 { return t.pool.DRAMBytes() }

func (t *Tree) rootNode() *node { return t.pool.node(t.root) }

func (t *Tree) checkKey(k uint64) {
	if k >= uint64(1)<<t.cfg.UniverseBits {
		panic(fmt.Sprintf("veb: key %d outside universe 2^%d", k, t.cfg.UniverseBits))
	}
}

// preWalk warms the search path non-transactionally (the paper's MEMTYPE
// mitigation). Reads may be torn; the walk is bounded and its results are
// discarded.
func (t *Tree) preWalk(k uint64) {
	defer func() { recover() }() // tolerate torn reads of a live tree
	m := directMem{t.tm}
	t.findSlot(m, t.rootNode(), k)
}

// SetObs attaches a telemetry recorder: every Get/Insert/Remove records
// its latency on it. Attach before the tree is shared between goroutines;
// nil disables recording.
func (t *Tree) SetObs(r *obs.Recorder) { t.obs = r }

// Get returns the value stored under k.
func (t *Tree) Get(k uint64) (uint64, bool) {
	t.checkKey(k)
	if t.obs != nil {
		// Deferred-args idiom: Now() is evaluated here, at op start.
		defer t.obs.EndOp(obs.OpLookup, k, t.obs.Now())
	}
	preWalked := false
	retries := 0
	for {
		var v uint64
		var ok bool
		var opts []htm.AttemptOption
		if preWalked {
			opts = append(opts, htm.PreWalked())
		}
		res := t.tm.Attempt(func(tx *htm.Tx) {
			m := txMem{tx}
			v, ok = 0, false
			if slot := t.findSlot(m, t.rootNode(), k); slot != nil {
				v = m.load(slot)
				if t.sys != nil {
					v = t.sys.BlockAt(nvm.Addr(v)).ValueTx(tx)
				}
				ok = true
			}
		}, opts...)
		if res.Committed {
			return v, ok
		}
		switch res.Cause {
		case htm.CauseMemType:
			t.preWalk(k)
			preWalked = true
		default:
			// A persistently aborting read escapes into a read-only session.
			if retries++; retries >= t.tm.Budget(maxRetries) {
				t.tm.RunFallback(func(f *htm.Fallback) {
					m := fbMem{f}
					v, ok = 0, false
					if slot := t.findSlot(m, t.rootNode(), k); slot != nil {
						v = m.load(slot)
						if t.sys != nil {
							v = t.sys.BlockAt(nvm.Addr(v)).ValueF(f)
						}
						ok = true
					}
				})
				return v, ok
			}
		}
	}
}

// Contains reports whether k is present.
func (t *Tree) Contains(k uint64) bool {
	_, ok := t.Get(k)
	return ok
}

// Successor returns the smallest key strictly greater than k and its
// value.
func (t *Tree) Successor(k uint64) (uint64, uint64, bool) {
	t.checkKey(k)
	retries := 0
	for {
		var sk, v uint64
		var ok bool
		res := t.tm.Attempt(func(tx *htm.Tx) {
			m := txMem{tx}
			sk = t.succRec(m, t.rootNode(), k)
			if sk == EMPTY {
				ok = false
				return
			}
			slot := t.findSlot(m, t.rootNode(), sk)
			v = m.load(slot)
			if t.sys != nil {
				v = t.sys.BlockAt(nvm.Addr(v)).ValueTx(tx)
			}
			ok = true
		})
		if res.Committed {
			return sk, v, ok
		}
		if retries++; retries >= t.tm.Budget(maxRetries) {
			t.tm.RunFallback(func(f *htm.Fallback) {
				m := fbMem{f}
				sk, v, ok = 0, 0, false
				sk = t.succRec(m, t.rootNode(), k)
				if sk == EMPTY {
					return
				}
				slot := t.findSlot(m, t.rootNode(), sk)
				v = m.load(slot)
				if t.sys != nil {
					v = t.sys.BlockAt(nvm.Addr(v)).ValueF(f)
				}
				ok = true
			})
			return sk, v, ok
		}
	}
}

// Range calls fn for every key in [lo, hi] in ascending order, stopping
// early if fn returns false. Each step is one Successor transaction, so
// the scan is not a single atomic snapshot (matching how vEB range
// queries compose from successor operations).
func (t *Tree) Range(lo, hi uint64, fn func(k, v uint64) bool) {
	t.checkKey(lo)
	if v, ok := t.Get(lo); ok {
		if !fn(lo, v) {
			return
		}
	}
	k := lo
	for {
		nk, v, ok := t.Successor(k)
		if !ok || nk > hi {
			return
		}
		if !fn(nk, v) {
			return
		}
		k = nk
	}
}

// Insert adds or updates k (upsert), reporting whether an existing value
// was replaced. For persistent trees pass the worker whose epoch brackets
// the operation; for transient trees w is ignored and may be nil.
func (t *Tree) Insert(w *epoch.Worker, k, v uint64) bool {
	t.checkKey(k)
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpInsert, k, t.obs.Now())
	}
	if t.sys == nil {
		return t.insertTransient(k, v)
	}
	return t.insertPersistent(w, k, v)
}

func (t *Tree) insertTransient(k, v uint64) bool {
	retries := 0
	preWalked := false
	for {
		var replaced bool
		var opts []htm.AttemptOption
		if preWalked {
			opts = append(opts, htm.PreWalked())
		}
		res := t.tm.Attempt(func(tx *htm.Tx) {
			m := txMem{tx}
			slot, inserted := t.insertRec(m, t.rootNode(), k, v)
			if !inserted {
				m.store(slot, v)
				replaced = true
			}
		}, opts...)
		switch {
		case res.Committed:
			if !replaced {
				t.count.Add(1)
			}
			return replaced
		case res.Cause == htm.CauseMemType:
			t.preWalk(k)
			preWalked = true
		default:
			retries++
			if retries >= t.tm.Budget(maxRetries) {
				t.tm.RunFallback(func(f *htm.Fallback) {
					m := fbMem{f}
					replaced = false
					slot, inserted := t.insertRec(m, t.rootNode(), k, v)
					if !inserted {
						m.store(slot, v)
						replaced = true
					}
				})
				if !replaced {
					t.count.Add(1)
				}
				return replaced
			}
		}
	}
}

func (t *Tree) insertPersistent(w *epoch.Worker, k, v uint64) bool {
	ws := &t.perW[w.ID()]
retryRegist:
	opEpoch := w.BeginOp()
	if ws.prealloc.IsNil() {
		ws.prealloc = w.NewKV(BlockTag)
	}
	newBlk := ws.prealloc
	newBlk.InitKV(k, v)

	var retire, persist epoch.Block
	var usedPrealloc, replaced bool
	retries := 0
	preWalked := false
retryTxn:
	retire, persist = epoch.Block{}, epoch.Block{}
	usedPrealloc, replaced = false, false
	var opts []htm.AttemptOption
	if preWalked {
		opts = append(opts, htm.PreWalked())
	}
	res := w.Attempt(t.tm, func(tx *htm.Tx) {
		m := txMem{tx}
		slot, inserted := t.insertRec(m, t.rootNode(), k, uint64(newBlk.Addr()))
		if inserted {
			// Fresh insert: there is no block to epoch-compare, so the
			// absence itself must be validated against newer removals.
			t.removals.CheckTx(tx, k, opEpoch)
			newBlk.SetEpochTx(tx, opEpoch)
			persist, usedPrealloc = newBlk, true
			return
		}
		// Existing key: epoch-compare its block (Listing 1).
		blk := t.sys.BlockAt(nvm.Addr(m.load(slot)))
		be := blk.EpochTx(tx)
		switch {
		case be > opEpoch:
			tx.Abort(epoch.OldSeeNewCode)
		case be < opEpoch:
			newBlk.SetEpochTx(tx, opEpoch)
			m.store(slot, uint64(newBlk.Addr()))
			retire, persist, usedPrealloc = blk, newBlk, true
		default:
			blk.SetValueTx(tx, v)
		}
		replaced = true
	}, opts...)
	switch {
	case res.Committed:
	case res.Cause == htm.CauseExplicit && res.Code == epoch.OldSeeNewCode:
		w.AbortOp()
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
		if !t.insertFallback(w, opEpoch, k, v, newBlk, &retire, &persist, &usedPrealloc, &replaced) {
			w.AbortOp()
			goto retryRegist
		}
	}
	if usedPrealloc {
		ws.prealloc = epoch.Block{}
	}
	if !retire.IsNil() {
		w.PRetire(retire)
	}
	if !persist.IsNil() {
		w.PTrack(persist)
	}
	if !replaced {
		t.count.Add(1)
	}
	w.EndOp()
	return replaced
}

// insertFallback performs the insert as a slow-path session; it returns
// false if the operation must restart in a newer epoch.
func (t *Tree) insertFallback(w *epoch.Worker, opEpoch, k, v uint64, newBlk epoch.Block,
	retire, persist *epoch.Block, usedPrealloc, replaced *bool) bool {
	ok := true
	t.tm.RunFallback(func(f *htm.Fallback) {
		// The session body may restart on lock contention: every output is
		// reset here, and all shared writes are buffered until it finishes.
		ok = true
		*retire, *persist = epoch.Block{}, epoch.Block{}
		*usedPrealloc, *replaced = false, false
		m := fbMem{f}
		if slot := t.findSlot(m, t.rootNode(), k); slot != nil {
			blk := t.sys.BlockAt(nvm.Addr(m.load(slot)))
			be := blk.EpochF(f)
			switch {
			case be > opEpoch:
				ok = false
				return
			case be < opEpoch:
				newBlk.SetEpochF(f, opEpoch)
				m.store(slot, uint64(newBlk.Addr()))
				*retire, *persist, *usedPrealloc = blk, newBlk, true
			default:
				m.storeHeap(t.sys.Heap(), blk.Payload(1), v)
			}
			*replaced = true
			return
		}
		if !t.removals.OkF(f, k, opEpoch) {
			ok = false // absence created by a newer-epoch removal
			return
		}
		newBlk.SetEpochF(f, opEpoch)
		if _, inserted := t.insertRec(m, t.rootNode(), k, uint64(newBlk.Addr())); !inserted {
			panic("veb: key appeared during fallback insert despite the slow-path locks")
		}
		*persist, *usedPrealloc = newBlk, true
	})
	return ok
}

// Remove deletes k, reporting whether it was present.
func (t *Tree) Remove(w *epoch.Worker, k uint64) bool {
	t.checkKey(k)
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpRemove, k, t.obs.Now())
	}
	if t.sys == nil {
		return t.removeTransient(k)
	}
	return t.removePersistent(w, k)
}

func (t *Tree) removeTransient(k uint64) bool {
	retries := 0
	for {
		var removed bool
		res := t.tm.Attempt(func(tx *htm.Tx) {
			m := txMem{tx}
			_, removed = t.removeRec(m, t.rootNode(), k)
		})
		switch {
		case res.Committed:
			if removed {
				t.count.Add(-1)
			}
			return removed
		default:
			retries++
			if retries >= t.tm.Budget(maxRetries) {
				t.tm.RunFallback(func(f *htm.Fallback) {
					m := fbMem{f}
					_, removed = t.removeRec(m, t.rootNode(), k)
				})
				if removed {
					t.count.Add(-1)
				}
				return removed
			}
		}
	}
}

func (t *Tree) removePersistent(w *epoch.Worker, k uint64) bool {
retryRegist:
	opEpoch := w.BeginOp()
	var retire epoch.Block
	retries := 0
retryTxn:
	retire = epoch.Block{}
	res := w.Attempt(t.tm, func(tx *htm.Tx) {
		m := txMem{tx}
		val, ok := t.removeRec(m, t.rootNode(), k)
		if !ok {
			// Absent: make sure the absence is not a newer removal's work.
			t.removals.CheckTx(tx, k, opEpoch)
			return
		}
		// Epoch check after the (speculative) mutation: an abort rolls
		// the whole transaction back.
		blk := t.sys.BlockAt(nvm.Addr(val))
		if blk.EpochTx(tx) > opEpoch {
			tx.Abort(epoch.OldSeeNewCode)
		}
		t.removals.RaiseTx(tx, k, opEpoch)
		retire = blk
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
		if !t.removeFallback(w, opEpoch, k, &retire) {
			w.AbortOp()
			goto retryRegist
		}
	}
	removed := !retire.IsNil()
	if removed {
		w.PRetire(retire)
		t.count.Add(-1)
	}
	w.EndOp()
	return removed
}

func (t *Tree) removeFallback(w *epoch.Worker, opEpoch, k uint64, retire *epoch.Block) bool {
	ok := true
	t.tm.RunFallback(func(f *htm.Fallback) {
		ok = true
		*retire = epoch.Block{}
		m := fbMem{f}
		slot := t.findSlot(m, t.rootNode(), k)
		if slot == nil {
			// Absent: restart in a newer epoch if a newer removal made it so.
			ok = t.removals.OkF(f, k, opEpoch)
			return
		}
		blk := t.sys.BlockAt(nvm.Addr(m.load(slot)))
		if blk.EpochF(f) > opEpoch {
			ok = false
			return
		}
		if _, removed := t.removeRec(m, t.rootNode(), k); !removed {
			panic("veb: key vanished during fallback remove despite the slow-path locks")
		}
		t.removals.RaiseF(f, k, opEpoch)
		*retire = blk
	})
	return ok
}

// RebuildBlock reinserts one recovered KV block into a fresh persistent
// tree. Recovery is single-threaded.
func (t *Tree) RebuildBlock(rec epoch.BlockRecord) {
	if t.sys == nil {
		panic("veb: RebuildBlock on a transient tree")
	}
	k := rec.Block.Key()
	t.checkKey(k)
	m := directMem{t.tm}
	slot, inserted := t.insertRec(m, t.rootNode(), k, uint64(rec.Block.Addr()))
	if !inserted {
		old := t.sys.BlockAt(nvm.Addr(m.load(slot)))
		panic(fmt.Sprintf("veb: duplicate key %d during recovery (BDL invariant violated): existing blk@%d epoch=%d vs new blk@%d epoch=%d resurrected=%v",
			k, old.Addr(), old.Epoch(), rec.Block.Addr(), rec.Block.Epoch(), rec.Resurrected))
	}
	t.count.Add(1)
}
