// Package veb implements the paper's first case study (Sec. 4.1): a
// concurrent van Emde Boas tree with doubly logarithmic operations,
// synchronized with hardware transactional memory in the style of
// Khalaji et al. (PPoPP'24), in two flavors:
//
//   - HTM-vEB (transient): the whole tree, values included, lives in
//     DRAM; each operation is one body that htm.TM.Run attempts as a
//     hardware transaction and, after repeated aborts, runs as a
//     slow-path session.
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
	}
	if t.sys != nil {
		t.perW = make([]vebWState, t.sys.MaxWorkers())
	}
	t.root = t.pool.alloc(cfg.UniverseBits)
	return t
}

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

// Get returns the value stored under k.
func (t *Tree) Get(k uint64) (uint64, bool) {
	t.checkKey(k)
	var v uint64
	var ok bool
	t.tm.Run(nil, maxRetries, func() { t.preWalk(k) }, func(tx *htm.Tx) {
		m := txMem{tx}
		v, ok = 0, false
		if slot := t.findSlot(m, t.rootNode(), k); slot != nil {
			v = m.load(slot)
			if t.sys != nil {
				v = t.sys.BlockAt(nvm.Addr(v)).ValueTx(tx)
			}
			ok = true
		}
	})
	return v, ok
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
	var sk, v uint64
	var ok bool
	t.tm.Run(nil, maxRetries, nil, func(tx *htm.Tx) {
		m := txMem{tx}
		sk, v, ok = t.succRec(m, t.rootNode(), k), 0, false
		if sk == EMPTY {
			return
		}
		slot := t.findSlot(m, t.rootNode(), sk)
		v = m.load(slot)
		if t.sys != nil {
			v = t.sys.BlockAt(nvm.Addr(v)).ValueTx(tx)
		}
		ok = true
	})
	return sk, v, ok
}

// Insert adds or updates k (upsert), reporting whether an existing value
// was replaced. For persistent trees pass the worker whose epoch brackets
// the operation; for transient trees w is ignored and may be nil.
func (t *Tree) Insert(w *epoch.Worker, k, v uint64) bool {
	t.checkKey(k)
	if t.sys == nil {
		return t.insertTransient(k, v)
	}
	return t.insertPersistent(w, k, v)
}

func (t *Tree) insertTransient(k, v uint64) bool {
	var replaced bool
	t.tm.Run(nil, maxRetries, func() { t.preWalk(k) }, func(tx *htm.Tx) {
		m := txMem{tx}
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
	res := w.Run(t.tm, maxRetries, func() { t.preWalk(k) }, func(tx *htm.Tx) {
		// A failed attempt may have run to completion and a session may
		// restart: reset the outputs before anything else.
		retire, persist = epoch.Block{}, epoch.Block{}
		usedPrealloc, replaced = false, false
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
			// In place (pSet): re-track, an early pass may have written
			// the block back since its first tracking.
			blk.SetValueTx(tx, v)
			persist = blk
		}
		replaced = true
	})
	if !res.Committed {
		w.AbortOp() // OldSeeNewCode: restart in the current epoch
		goto retryRegist
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

// Remove deletes k, reporting whether it was present.
func (t *Tree) Remove(w *epoch.Worker, k uint64) bool {
	t.checkKey(k)
	if t.sys == nil {
		return t.removeTransient(k)
	}
	return t.removePersistent(w, k)
}

func (t *Tree) removeTransient(k uint64) bool {
	var removed bool
	t.tm.Run(nil, maxRetries, nil, func(tx *htm.Tx) {
		_, removed = t.removeRec(txMem{tx}, t.rootNode(), k)
	})
	if removed {
		t.count.Add(-1)
	}
	return removed
}

func (t *Tree) removePersistent(w *epoch.Worker, k uint64) bool {
retryRegist:
	opEpoch := w.BeginOp()
	var retire epoch.Block
	res := w.Run(t.tm, maxRetries, nil, func(tx *htm.Tx) {
		retire = epoch.Block{}
		val, ok := t.removeRec(txMem{tx}, t.rootNode(), k)
		if !ok {
			// Absent: make sure the absence is not a newer removal's work.
			t.removals.CheckTx(tx, k, opEpoch)
			return
		}
		// Epoch check after the (buffered) mutation: an abort rolls the
		// whole body back, in a session as in a transaction.
		blk := t.sys.BlockAt(nvm.Addr(val))
		if blk.EpochTx(tx) > opEpoch {
			tx.Abort(epoch.OldSeeNewCode)
		}
		t.removals.RaiseTx(tx, k, opEpoch)
		retire = blk
	})
	if !res.Committed {
		w.AbortOp() // OldSeeNewCode: restart in the current epoch
		goto retryRegist
	}
	removed := !retire.IsNil()
	if removed {
		w.PRetire(retire)
		t.count.Add(-1)
	}
	w.EndOp()
	return removed
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
