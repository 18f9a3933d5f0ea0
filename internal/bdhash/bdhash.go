// Package bdhash implements the buffered-durable HTM hash table of the
// paper's Listing 1 — the tutorial structure for the BDL + HTM strategy.
//
// The bucket array lives in DRAM and holds addresses of KV blocks in NVM.
// A slot word packs the block's address (bits 0-47) with a 16-bit
// fingerprint of its key (bits 48-63, hash bits the bucket index does not
// use), so a probe reads a block's key from NVM only on a fingerprint hit.
// A probe ends at the first empty slot of its window: a removal leaves a
// tombstone where a later key's probe may still have to pass, so every key
// lies before the first empty slot of its window, and an operation at low
// load reads one bucket line, not the whole window.
// Every operation has one body, which epoch.Worker.Run attempts as a
// hardware transaction and, after repeated aborts, runs as a slow-path
// session; it brackets itself with BeginOp/EndOp, and follows the epoch
// discipline:
//
//   - a preallocated NVM block (with invalid epoch) is kept per worker so
//     that allocation never happens inside the transaction;
//   - the block is stamped with the operation's epoch inside the
//     transaction, by the branch that links it and only by that branch
//     (a stamped block the transaction did not link is a phantom insert
//     at recovery);
//   - a block from an older epoch is replaced out-of-place and retired;
//     a block from the *current* epoch is updated in place (pSet) and
//     tracked again;
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
)

const (
	// BucketSize is the number of slots per bucket (one cache line of
	// DRAM per bucket).
	BucketSize = 8
	// maxProbeBuckets is the linear-probing window: a key lives in one of
	// this many consecutive buckets. A probe scans them only up to the
	// first empty slot, so the window bounds capacity, not the usual scan.
	maxProbeBuckets = 4
	// maxRetries bounds transactional retries before the session.
	maxRetries = 32

	// A slot word is addr | fingerprint: the block address in the low
	// addrBits bits, the top bits of the key's hash above them. An
	// occupied slot is nonzero because no block lives at address 0.
	addrBits = 48
	addrMask = 1<<addrBits - 1

	// tomb marks a slot whose key was removed while a later key's probe
	// may run through it: not empty, so probes go on past it, and free to
	// an insert. No block lives at address 1, so it is never a slot word.
	tomb = 1
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

	perW []wstate
}

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
		perW:     make([]wstate, sys.MaxWorkers()),
	}
}

func hash64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return k ^ k>>33
}

// probeSlots is the length of a key's probe window.
const probeSlots = maxProbeBuckets * BucketSize

// probe returns the first slot of k's probe window and k's fingerprint,
// in place in the slot word's top bits. The bucket index takes the hash's
// low bits and the fingerprint its top 16, so keys that share a bucket
// still differ in fingerprint unless they collide on both.
func (t *Table) probe(k uint64) (start, fp uint64) {
	h := hash64(k)
	return (h & (t.nBuckets - 1)) * BucketSize, h &^ addrMask
}

func (t *Table) slotAt(i uint64) *uint64 {
	return &t.slots[i&(t.nBuckets*BucketSize-1)]
}

// blockAt decodes an occupied slot word's block.
func (t *Table) blockAt(word uint64) epoch.Block {
	return t.sys.BlockAt(nvm.Addr(word & addrMask))
}

// slotWord packs a block address with its key's fingerprint.
func slotWord(b epoch.Block, fp uint64) uint64 { return uint64(b.Addr()) | fp }

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
	ws := &t.perW[w.ID()]
retryRegist:
	opEpoch := w.BeginOp()
	if ws.prealloc.IsNil() {
		ws.prealloc = w.NewKV(t.tag) // skip allocation if one is available
	}
	newBlk := ws.prealloc
	newBlk.InitKV(k, v) // initialize block, epoch reset to invalid

	var out insertOutcome
	res := w.Run(t.tm, maxRetries, func() { t.preWalk(k) }, func(tx *htm.Tx) {
		t.insertBody(tx, opEpoch, k, v, newBlk, &out)
	})
	if !res.Committed {
		// OldSeeNewCode, the body's only explicit abort: restart in the
		// (newer) current epoch.
		w.AbortOp()
		goto retryRegist
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

// insertBody is the insert of Listing 1 (lines 17-37), as a transaction or
// as a session. A failed attempt may have run it to completion (conflicts
// surface at commit) and a session may restart it, so it resets out first.
func (t *Table) insertBody(tx *htm.Tx, opEpoch, k, v uint64, newBlk epoch.Block, out *insertOutcome) {
	*out = insertOutcome{}
	start, fp := t.probe(k)
	var free *uint64 // the first tombstone or empty slot on the way
	for i := uint64(0); i < probeSlots; i++ {
		sp := t.slotAt(start + i)
		word := tx.Load(sp)
		if word <= tomb && free == nil {
			free = sp
		}
		if word == 0 {
			break // k is absent: no key lies past an empty slot
		}
		if word == tomb || word&^addrMask != fp {
			continue
		}
		b := t.blockAt(word)
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
			tx.Store(sp, slotWord(newBlk, fp))
			out.retire = b
			out.persist = newBlk
			out.usedPrealloc = true
		default:
			// Same epoch: in-place update (pSet). The block is tracked in
			// this epoch already, but an early pass may have written it back
			// since: track it again, after the commit.
			b.SetValueTx(tx, v)
			out.persist = b
		}
		out.replaced = true
		return
	}
	if free == nil {
		out.full = true
		return
	}
	// Fresh insert: no block to epoch-compare, so the absence itself must
	// be validated against newer removals.
	t.removals.CheckTx(tx, k, opEpoch)
	newBlk.SetEpochTx(tx, opEpoch)
	tx.Store(free, slotWord(newBlk, fp))
	out.persist = newBlk
	out.usedPrealloc = true
}

// preWalk touches the key's probe window non-transactionally, the paper's
// mitigation for MEMTYPE aborts (Sec. 4.1): the slots, and the key of each
// fingerprint hit, up to the first empty slot, which is all the body will
// read.
func (t *Table) preWalk(k uint64) {
	start, fp := t.probe(k)
	var sink uint64
	for i := uint64(0); i < probeSlots; i++ {
		word := t.tm.DirectLoad(t.slotAt(start + i))
		if word == 0 {
			break
		}
		if word != tomb && word&^addrMask == fp {
			sink += t.sys.Heap().Load(nvm.Addr(word & addrMask))
		}
	}
	_ = sink
}

// Get returns the value stored under k.
func (t *Table) Get(k uint64) (uint64, bool) { return t.GetW(nil, k) }

// GetW is Get routed through an epoch worker so a service request's
// sampled span (worker.SetSpan) sees the lookup's HTM attempts; w may be
// nil (plain Get). A long slow-path writer parked on the probe window would
// abort a pure retry loop indefinitely; past its budget the lookup runs as
// a read-only session, which waits its turn per line instead.
func (t *Table) GetW(w *epoch.Worker, k uint64) (uint64, bool) {
	var v uint64
	var ok bool
	w.Run(t.tm, maxRetries, nil, func(tx *htm.Tx) {
		v, ok = 0, false
		start, fp := t.probe(k)
		for i := uint64(0); i < probeSlots; i++ {
			word := tx.Load(t.slotAt(start + i))
			if word == 0 {
				return
			}
			if word == tomb || word&^addrMask != fp {
				continue
			}
			b := t.blockAt(word)
			if b.KeyTx(tx) == k {
				v, ok = b.ValueTx(tx), true
				return
			}
		}
	})
	return v, ok
}

// Remove deletes a key, reporting whether it was present.
func (t *Table) Remove(w *epoch.Worker, k uint64) bool {
retryRegist:
	opEpoch := w.BeginOp()
	var retire epoch.Block
	res := w.Run(t.tm, maxRetries, nil, func(tx *htm.Tx) {
		retire = epoch.Block{}
		start, fp := t.probe(k)
		for i := uint64(0); i < probeSlots; i++ {
			word := tx.Load(t.slotAt(start + i))
			if word == 0 {
				break
			}
			if word == tomb || word&^addrMask != fp {
				continue
			}
			b := t.blockAt(word)
			if b.KeyTx(tx) != k {
				continue
			}
			if b.EpochTx(tx) > opEpoch {
				tx.Abort(epoch.OldSeeNewCode)
			}
			t.removals.RaiseTx(tx, k, opEpoch)
			t.vacate(tx, start+i)
			retire = b
			return
		}
		// Absent: make sure the absence is not a newer removal's work.
		t.removals.CheckTx(tx, k, opEpoch)
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

// vacate frees slot i of a removed key. A slot followed by an empty slot
// is on no key's probe (that key would lie past an empty slot), so it is
// emptied, and then so is each tombstone just before it in its bucket;
// any other slot becomes a tombstone. The slots before i in its bucket are
// in the probe's reads already, so only a bucket's last slot reads a new
// line.
func (t *Table) vacate(tx *htm.Tx, i uint64) {
	if tx.Load(t.slotAt(i+1)) != 0 {
		tx.Store(t.slotAt(i), tomb)
		return
	}
	tx.Store(t.slotAt(i), 0)
	for i%BucketSize != 0 {
		i--
		sp := t.slotAt(i)
		if tx.Load(sp) != tomb {
			return
		}
		tx.Store(sp, 0)
	}
}

// RebuildBlock reinserts one recovered block into the DRAM index. Call it
// from the epoch.Recover rebuild callback for records carrying this
// table's tag. Recovery is single-threaded, so plain stores suffice, and
// it builds a fresh table, so no tombstone survives a crash.
func (t *Table) RebuildBlock(rec epoch.BlockRecord) {
	k := rec.Block.Key()
	start, fp := t.probe(k)
	for i := uint64(0); i < probeSlots; i++ {
		sp := t.slotAt(start + i)
		if *sp == 0 {
			*sp = slotWord(rec.Block, fp)
			t.count.Add(1)
			return
		}
		if *sp&^addrMask == fp && t.blockAt(*sp).Key() == k {
			panic(fmt.Sprintf("bdhash: duplicate key %d in recovery (BDL invariant violated)", k))
		}
	}
	panic("bdhash: probe window full during recovery")
}

// Keys calls fn for every key/value in the table. Not linearizable; for
// tests and diagnostics.
func (t *Table) Keys(fn func(k, v uint64)) {
	for i := range t.slots {
		if word := atomic.LoadUint64(&t.slots[i]); word != 0 && word != tomb {
			b := t.blockAt(word)
			fn(b.Key(), b.Value())
		}
	}
}
