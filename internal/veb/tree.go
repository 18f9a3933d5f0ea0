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
//     by the epoch system. Writes are epoch.Ops, the Listing-1 bracket
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
	t.tm.Run(nil, func() { t.preWalk(k) }, func(tx *htm.Tx) {
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
	t.tm.Run(nil, nil, func(tx *htm.Tx) {
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
	t.tm.Run(nil, func() { t.preWalk(k) }, func(tx *htm.Tx) {
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

// insertPersistent is the Listing-1 insert: the tree holds the address of
// a KV block in the key's value slot, and op decides which block.
func (t *Tree) insertPersistent(w *epoch.Worker, k, v uint64) bool {
	op := w.BeginInsert(BlockTag, epoch.KVPayloadWords, k, v)
	op.Run(t.tm, func() { t.preWalk(k) }, func(tx *htm.Tx) {
		m := txMem{tx}
		slot, inserted := t.insertRec(m, t.rootNode(), k, uint64(op.Spare().Addr()))
		if inserted {
			op.Link(tx, k)
			return
		}
		old := t.sys.BlockAt(nvm.Addr(m.load(slot)))
		if nb := op.Revise(tx, old, v); nb != old {
			m.store(slot, uint64(nb.Addr()))
		}
	})
	replaced := op.End()
	if !replaced {
		t.count.Add(1)
	}
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
	t.tm.Run(nil, nil, func(tx *htm.Tx) {
		_, removed = t.removeRec(txMem{tx}, t.rootNode(), k)
	})
	if removed {
		t.count.Add(-1)
	}
	return removed
}

func (t *Tree) removePersistent(w *epoch.Worker, k uint64) bool {
	op := w.BeginRemove()
	op.Run(t.tm, nil, func(tx *htm.Tx) {
		val, ok := t.removeRec(txMem{tx}, t.rootNode(), k)
		if !ok {
			op.Absent(tx, k)
			return
		}
		// Decided after the (buffered) mutation: an OldSeeNew abort rolls
		// the whole body back, in a session as in a transaction.
		op.Unlink(tx, k, t.sys.BlockAt(nvm.Addr(val)))
	})
	removed := op.End()
	if removed {
		t.count.Add(-1)
	}
	return removed
}

// RebuildBlock reinserts one recovered KV block into a fresh persistent
// tree. Recovery is single-threaded.
func (t *Tree) RebuildBlock(rec epoch.BlockRecord) {
	if t.sys == nil {
		panic("veb: RebuildBlock on a transient tree")
	}
	b := t.sys.BlockAt(rec.Addr)
	k := b.Key()
	t.checkKey(k)
	m := directMem{t.tm}
	slot, inserted := t.insertRec(m, t.rootNode(), k, uint64(rec.Addr))
	if !inserted {
		old := t.sys.BlockAt(nvm.Addr(m.load(slot)))
		panic(fmt.Sprintf("veb: duplicate key %d during recovery (BDL invariant violated): existing blk@%d epoch=%d vs new blk@%d epoch=%d resurrected=%v",
			k, old.Addr(), old.Epoch(), rec.Addr, b.Epoch(), rec.Resurrected))
	}
	t.count.Add(1)
}
