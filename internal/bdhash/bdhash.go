// Package bdhash implements the buffered-durable HTM hash table of the
// paper's Listing 1 — the tutorial structure for the BDL + HTM strategy.
//
// The bucket array lives in DRAM and holds addresses of KV blocks in NVM.
// A slot is 32 bits, two to a word of the array: the block's address in
// the low bits, as many as the heap's highest address needs, and a
// fingerprint of its key above them (the top bits of its hash, which the
// bucket index does not use), so a probe reads a block's key from NVM only
// on a fingerprint hit.
// A probe ends at the first empty slot of its window: a removal leaves a
// tombstone where a later key's probe may still have to pass, so every key
// lies before the first empty slot of its window, and an operation at low
// load reads one bucket line, not the whole window.
// Every operation has one body, which epoch.Worker.Run attempts as a
// hardware transaction and, after repeated aborts, runs as a slow-path
// session. A write is one epoch.Op, the Listing-1 bracket the epoch
// package writes once for every buffered structure; this file holds only
// the probe and the slot stores. Listing 1's lines map to it so:
//
//   - BeginOp, line 10 (preallocate outside the transaction with an
//     invalid epoch) and line 12 (initialise): Worker.BeginInsert, whose
//     spare block is the worker's, so allocation never happens inside the
//     transaction;
//   - lines 17-37 (the transaction: search, then link or update): Op.Run
//     runs insertBody or Remove's body; the probe is here, and each
//     decision is one Op method — Link for an empty slot (the absence is
//     checked against newer removals, the spare stamped, line 17), Revise
//     for a found key (lines 21-29: a newer block aborts with
//     OldSeeNewCode, a current-epoch block is updated in place, an older
//     one replaced by the stamped spare), Unlink and Absent for a removal;
//   - the OldSeeNewException handler (restart in the current epoch): Op.Run;
//   - PTrack/PRetire after the commit, then EndOp: Op.End.
//
// After a crash, the DRAM index is rebuilt by scanning recovered blocks.
package bdhash

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

const (
	// BucketSize is the number of slots per bucket (half a cache line
	// of DRAM per bucket: a slot is 32 bits).
	BucketSize = 8
	// maxProbeBuckets is the linear-probing window: a key lives in one of
	// this many consecutive buckets. A probe scans them only up to the
	// first empty slot, so the window bounds capacity, not the usual scan.
	maxProbeBuckets = 4

	// A slot is addr | fingerprint, slotBits wide: the block address in
	// the low bits (Table.addrMask), the top bits of the key's hash above
	// them. An occupied slot is nonzero because no block lives at
	// address 0. Slot i is half i%2 of word i/2 of the slot array.
	slotBits = 32

	// tomb marks a slot whose key was removed while a later key's probe
	// may run through it: not empty, so probes go on past it, and free to
	// an insert. No block lives at address 1, so it is never a slot.
	tomb = 1

	// fullCode aborts an insert whose probe window has no free slot.
	fullCode uint8 = 0xB1
)

// Table is a buffered-durable hash table mapping uint64 keys to uint64
// values. All methods are safe for concurrent use; each goroutine passes
// its own epoch.Worker.
type Table struct {
	sys *epoch.System
	tm  *htm.TM
	tag uint8

	nBuckets uint64 // power of two
	addrMask uint32 // a slot's address bits
	slots    []uint64
	unmap    runtime.Cleanup // releases slots when the table is collected

	count atomic.Int64
}

// New creates a table with capacity for roughly `capacity` keys (sized to
// a conservative load factor). tag distinguishes this table's blocks from
// other structures sharing the heap during recovery. The slot array is
// DRAM, a mapping outside the Go heap (nvm.MapWords), faulted in whole
// here: sys.SimulateCrash releases it, and the table panics on use after;
// otherwise it goes when the table is collected. New panics if the heap's
// addresses do not fit in a slot.
func New(sys *epoch.System, tm *htm.TM, capacity int, tag uint8) *Table {
	nBuckets := uint64(1)
	for nBuckets*BucketSize < uint64(capacity)*2 {
		nBuckets *= 2
	}
	t := &Table{
		sys:      sys,
		tm:       tm,
		tag:      tag,
		nBuckets: nBuckets,
		addrMask: addrMask(uint64(sys.Heap().Words())),
		slots:    nvm.MapWords(int(nBuckets * BucketSize / 2)),
	}
	nvm.Populate(t.slots)
	t.unmap = runtime.AddCleanup(t, nvm.UnmapWords, t.slots)
	epoch.OnCrash(sys, t, (*Table).dropIndex)
	return t
}

// addrMask is the mask of a slot's address bits on a heap of the given
// words: as many bits as its highest address needs, so the fingerprint
// gets the rest.
func addrMask(words uint64) uint32 {
	n := bits.Len64(words - 1)
	if n > slotBits {
		panic(fmt.Sprintf("bdhash: a heap of %d words has addresses wider than a %d-bit slot", words, slotBits))
	}
	return uint32(uint64(1)<<n - 1)
}

// dropIndex releases the slot array, as a power failure loses it: once,
// here, and not again when the table is collected.
func (t *Table) dropIndex() {
	t.unmap.Stop()
	nvm.UnmapWords(t.slots)
	t.slots = nil
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
// in place in the slot's top bits. The bucket index takes the hash's low
// bits and the fingerprint its top ones, so keys that share a bucket
// still differ in fingerprint unless they collide on both.
func (t *Table) probe(k uint64) (start uint64, fp uint32) {
	h := hash64(k)
	return (h & (t.nBuckets - 1)) * BucketSize, uint32(h>>(64-slotBits)) &^ t.addrMask
}

// nSlots is the table's slot count, a power of two.
func (t *Table) nSlots() uint64 { return t.nBuckets * BucketSize }

// slotAt returns the word holding slot i of the table (taken modulo its
// slot count) and the slot's shift within that word.
func (t *Table) slotAt(i uint64) (*uint64, uint) {
	i &= t.nSlots() - 1
	return &t.slots[i/2], uint(i%2) * slotBits
}

// load reads slot i in tx.
func (t *Table) load(tx *htm.Tx, i uint64) uint32 {
	p, sh := t.slotAt(i)
	return uint32(tx.Load(p) >> sh)
}

// store writes slot i in tx and keeps the other slot of its word. The
// merge is exact: the transaction tracks the word's line from the load,
// and a session locks it there.
func (t *Table) store(tx *htm.Tx, i uint64, s uint32) {
	p, sh := t.slotAt(i)
	tx.Store(p, tx.Load(p)&^(math.MaxUint32<<sh)|uint64(s)<<sh)
}

// peek reads slot i outside a transaction.
func (t *Table) peek(i uint64) uint32 {
	p, sh := t.slotAt(i)
	return uint32(atomic.LoadUint64(p) >> sh)
}

// blockAt decodes an occupied slot's block.
func (t *Table) blockAt(s uint32) epoch.Block {
	return t.sys.BlockAt(nvm.Addr(s & t.addrMask))
}

// slot packs a block address with its key's fingerprint.
func slot(b epoch.Block, fp uint32) uint32 { return uint32(b.Addr()) | fp }

// Len returns the number of keys in the table.
func (t *Table) Len() int { return int(t.count.Load()) }

// Insert adds or updates a key (upsert). It reports whether an existing
// value was replaced. Insert panics if the probe window is exhausted —
// size the table for the expected key population.
func (t *Table) Insert(w *epoch.Worker, k, v uint64) bool {
	op := w.BeginInsert(t.tag, epoch.KVPayloadWords, k, v)
	res := op.Run(t.tm, func() { t.preWalk(k) }, func(tx *htm.Tx) {
		t.insertBody(tx, op, k, v)
	})
	if !res.Committed { // fullCode
		op.Abort()
		panic(fmt.Sprintf("bdhash: probe window full inserting key %d; table under-sized", k))
	}
	replaced := op.End()
	if !replaced {
		t.count.Add(1)
	}
	return replaced
}

// insertBody is the insert of Listing 1 (lines 17-37), as a transaction or
// as a session: the probe, with op deciding what a found key or a free
// slot gets.
func (t *Table) insertBody(tx *htm.Tx, op *epoch.Op, k, v uint64) {
	start, fp := t.probe(k)
	end := start + probeSlots
	free := end // the first tombstone or empty slot on the way
	for i := start; i < end; i++ {
		s := t.load(tx, i)
		if s <= tomb && free == end {
			free = i
		}
		if s == 0 {
			break // k is absent: no key lies past an empty slot
		}
		if s == tomb || s&^t.addrMask != fp {
			continue
		}
		b := t.blockAt(s)
		if b.KeyTx(tx) != k {
			continue
		}
		if nb := op.Revise(tx, b, v); nb != b {
			t.store(tx, i, slot(nb, fp))
		}
		return
	}
	if free == end {
		tx.Abort(fullCode)
	}
	t.store(tx, free, slot(op.Link(tx, k), fp))
}

// preWalk touches the key's probe window non-transactionally, the paper's
// mitigation for MEMTYPE aborts (Sec. 4.1): the slots, and the key of each
// fingerprint hit, up to the first empty slot, which is all the body will
// read.
func (t *Table) preWalk(k uint64) {
	start, fp := t.probe(k)
	var sink uint64
	for i := start; i < start+probeSlots; i++ {
		s := t.peek(i)
		if s == 0 {
			break
		}
		if s != tomb && s&^t.addrMask == fp {
			sink += t.sys.Heap().Load(nvm.Addr(s & t.addrMask))
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
	w.Run(t.tm, nil, func(tx *htm.Tx) {
		v, ok = 0, false
		start, fp := t.probe(k)
		for i := start; i < start+probeSlots; i++ {
			s := t.load(tx, i)
			if s == 0 {
				return
			}
			if s == tomb || s&^t.addrMask != fp {
				continue
			}
			b := t.blockAt(s)
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
	op := w.BeginRemove()
	op.Run(t.tm, nil, func(tx *htm.Tx) {
		start, fp := t.probe(k)
		for i := start; i < start+probeSlots; i++ {
			s := t.load(tx, i)
			if s == 0 {
				break
			}
			if s == tomb || s&^t.addrMask != fp {
				continue
			}
			b := t.blockAt(s)
			if b.KeyTx(tx) != k {
				continue
			}
			op.Unlink(tx, k, b)
			t.vacate(tx, i)
			return
		}
		op.Absent(tx, k)
	})
	removed := op.End()
	if removed {
		t.count.Add(-1)
	}
	return removed
}

// vacate frees slot i of a removed key. A slot followed by an empty slot
// is on no key's probe (that key would lie past an empty slot), so it is
// emptied, and then so is each tombstone just before it in its bucket;
// any other slot becomes a tombstone. The slots before i in its bucket are
// in the probe's reads already, so only a bucket's last slot reads a new
// line.
func (t *Table) vacate(tx *htm.Tx, i uint64) {
	if t.load(tx, i+1) != 0 {
		t.store(tx, i, tomb)
		return
	}
	t.store(tx, i, 0)
	for i%BucketSize != 0 {
		i--
		if t.load(tx, i) != tomb {
			return
		}
		t.store(tx, i, 0)
	}
}

// RebuildBlock reinserts one recovered block into the DRAM index. Call it
// from the epoch.Recover rebuild callback for records carrying this
// table's tag. Recovery is single-threaded, so plain stores suffice, and
// it builds a fresh table, so no tombstone survives a crash.
func (t *Table) RebuildBlock(rec epoch.BlockRecord) {
	b := t.sys.BlockAt(rec.Addr)
	k := b.Key()
	start, fp := t.probe(k)
	for i := start; i < start+probeSlots; i++ {
		p, sh := t.slotAt(i)
		s := uint32(*p >> sh)
		if s == 0 {
			*p |= uint64(slot(b, fp)) << sh
			t.count.Add(1)
			return
		}
		if s&^t.addrMask == fp && t.blockAt(s).Key() == k {
			panic(fmt.Sprintf("bdhash: duplicate key %d in recovery (BDL invariant violated)", k))
		}
	}
	panic("bdhash: probe window full during recovery")
}

// Keys calls fn for every key/value in the table. Not linearizable; for
// tests and diagnostics.
func (t *Table) Keys(fn func(k, v uint64)) {
	for i := range t.nSlots() {
		if s := t.peek(i); s != 0 && s != tomb {
			b := t.blockAt(s)
			fn(b.Key(), b.Value())
		}
	}
}
