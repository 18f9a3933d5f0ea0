package spash

import (
	"fmt"
	"sync/atomic"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

// outcome captures one attempt's decisions for post-commit processing.
type outcome struct {
	usedNew  bool     // the new block was linked
	retire   nvm.Addr // block to retire (ModeBD)
	track    nvm.Addr // block to PTrack (ModeBD)
	touched  nvm.Addr // block for the hotspot policy
	replaced bool
}

// Insert adds or updates k (upsert), reporting whether an existing value
// was replaced. ModeBD requires the caller's epoch worker; ModeEADR
// ignores w (it may be nil).
func (t *Table) Insert(w *epoch.Worker, k, v uint64) bool {
	h := hash64(k)
	bd := t.cfg.Mode == ModeBD
retryRegist:
	opEpoch := eadrEpoch
	var newBlk nvm.Addr
	if bd {
		opEpoch = w.BeginOp()
		ws := &t.perW[w.ID()]
		if ws.prealloc.IsNil() {
			ws.prealloc = w.PNew(1+t.cfg.ValueWords, BlockTag).Addr()
		}
		newBlk = ws.prealloc
	} else {
		newBlk = t.alloc.AllocWords(1+t.cfg.ValueWords, BlockTag)
	}
	t.initBlock(newBlk, k, v)

	var out outcome
retryTxn:
	res := w.Run(t.tm, nil, func(tx *htm.Tx) {
		t.enter(tx)
		t.insertBody(tx, opEpoch, h, k, v, newBlk, bd, &out)
	})
	switch {
	case res.Committed:
	case res.Code == splitCode:
		t.split(h)
		goto retryTxn
	default: // epoch.OldSeeNewCode
		w.AbortOp()
		goto retryRegist
	}
	t.finishInsert(w, newBlk, bd, &out)
	return out.replaced
}

func (t *Table) finishInsert(w *epoch.Worker, newBlk nvm.Addr, bd bool, out *outcome) {
	if bd {
		ws := &t.perW[w.ID()]
		if out.usedNew {
			ws.prealloc = 0
		}
		if !out.retire.IsNil() {
			w.PRetire(t.sys.BlockAt(out.retire))
		}
		if !out.track.IsNil() {
			w.PTrack(t.sys.BlockAt(out.track))
		}
	} else if !out.usedNew {
		t.alloc.Free(newBlk)
	}
	if !out.replaced {
		atomic.AddInt64(&t.count, 1)
	}
	// Hotspot policy, off the critical transactional path.
	seg, bucket := t.locate(hash64(t.heap.Load(blockKeyAddr(out.touched))))
	hot := t.touchBucket(seg, bucket)
	t.maybeColdFlush(out.touched, hot)
	if bd {
		w.EndOp()
	}
}

// insertBody is the probe-and-link, as a transaction or as a session. It
// resets out first: a failed attempt may have run it to completion, and a
// session may restart it.
func (t *Table) insertBody(tx *htm.Tx, opEpoch, h, k, v uint64, newBlk nvm.Addr, bd bool, out *outcome) {
	*out = outcome{}
	seg, bucket := t.locate(h)
	base := bucket * slotsPerBucket
	var empty *uint64
	for s := 0; s < slotsPerBucket; s++ {
		sp := &seg.slots[base+s]
		sv := tx.Load(sp)
		if sv == 0 {
			if empty == nil {
				empty = sp
			}
			continue
		}
		if sv>>56 != h>>56 {
			continue
		}
		b := unpackAddr(sv)
		if tx.LoadAddr(t.heap, blockKeyAddr(b)) != k {
			continue
		}
		if bd {
			be := t.epochTx(tx, b)
			switch {
			case be > opEpoch:
				tx.Abort(epoch.OldSeeNewCode)
			case be < opEpoch:
				t.stampTx(tx, newBlk, opEpoch)
				tx.Store(sp, pack(h, newBlk))
				out.retire, out.track, out.usedNew = b, newBlk, true
				out.touched = newBlk
			default:
				// In place (pSet): re-track, an early pass may have written
				// the block back since its first tracking.
				tx.StoreAddr(t.heap, blockValueAddr(b), v)
				out.track, out.touched = b, b
			}
		} else {
			tx.StoreAddr(t.heap, blockValueAddr(b), v)
			out.touched = b
		}
		out.replaced = true
		return
	}
	if empty == nil {
		tx.Abort(splitCode)
	}
	if bd {
		// Fresh insert: no block to epoch-compare, so the absence itself
		// must be validated against newer removals.
		t.removals.CheckTx(tx, k, opEpoch)
	}
	t.stampTx(tx, newBlk, opEpoch)
	tx.Store(empty, pack(h, newBlk))
	out.usedNew = true
	out.touched = newBlk
	if bd {
		out.track = newBlk
	}
}

// Get returns the value stored under k.
func (t *Table) Get(k uint64) (uint64, bool) {
	h := hash64(k)
	var v uint64
	var ok bool
	t.tm.Run(nil, nil, func(tx *htm.Tx) {
		t.enter(tx)
		v, ok = 0, false
		seg, bucket := t.locate(h)
		base := bucket * slotsPerBucket
		for s := 0; s < slotsPerBucket; s++ {
			sv := tx.Load(&seg.slots[base+s])
			if sv == 0 || sv>>56 != h>>56 {
				continue
			}
			b := unpackAddr(sv)
			if tx.LoadAddr(t.heap, blockKeyAddr(b)) == k {
				v, ok = tx.LoadAddr(t.heap, blockValueAddr(b)), true
				return
			}
		}
	})
	return v, ok
}

// Remove deletes k, reporting whether it was present.
func (t *Table) Remove(w *epoch.Worker, k uint64) bool {
	h := hash64(k)
	bd := t.cfg.Mode == ModeBD
retryRegist:
	opEpoch := eadrEpoch
	if bd {
		opEpoch = w.BeginOp()
	}
	var victim nvm.Addr
	res := w.Run(t.tm, nil, func(tx *htm.Tx) {
		t.enter(tx)
		victim = 0
		seg, bucket := t.locate(h)
		base := bucket * slotsPerBucket
		for s := 0; s < slotsPerBucket; s++ {
			sp := &seg.slots[base+s]
			sv := tx.Load(sp)
			if sv == 0 || sv>>56 != h>>56 {
				continue
			}
			b := unpackAddr(sv)
			if tx.LoadAddr(t.heap, blockKeyAddr(b)) != k {
				continue
			}
			if bd && t.epochTx(tx, b) > opEpoch {
				tx.Abort(epoch.OldSeeNewCode)
			}
			if bd {
				t.removals.RaiseTx(tx, k, opEpoch)
			}
			tx.Store(sp, 0)
			victim = b
			return
		}
		if bd {
			// Absent: make sure the absence is not a newer removal's work.
			t.removals.CheckTx(tx, k, opEpoch)
		}
	})
	if !res.Committed {
		w.AbortOp() // OldSeeNewCode: restart in the current epoch
		goto retryRegist
	}
	removed := !victim.IsNil()
	if removed {
		if bd {
			w.PRetire(t.sys.BlockAt(victim))
		} else {
			t.alloc.Free(victim)
		}
		atomic.AddInt64(&t.count, -1)
	}
	if bd {
		w.EndOp()
	}
	return removed
}

// split splits the segment containing hash h (doubling the directory if
// needed). It is session-only: the session takes the gate, then locks the
// split barrier and drains in-flight commit windows: from that point no
// transaction can commit (ver is in every transaction's read set and its
// slot stays locked), so the native dir/segs manipulation is safe. The
// barrier word is the session's only write, and no lock is acquired after
// the manipulation, so a session restart can only happen before any state
// changed.
func (t *Table) split(h uint64) {
	t.tm.RunSession(func(tx *htm.Tx) {
		tx.Load(&t.fbGate)
		cur := tx.Load(&t.ver)
		tx.DrainCommits()
		t.splitLocked(h)
		tx.Store(&t.ver, cur+1)
	})
}

// splitLocked is split with the barrier already held. It loops until the
// bucket that overflowed has room (skewed fingerprints can force several
// rounds).
func (t *Table) splitLocked(h uint64) {
	for depth := 0; ; depth++ {
		if depth > 40 {
			panic("spash: unsplittable bucket (pathological fingerprint collision)")
		}
		dir := *t.dir.Load()
		segs := *t.segs.Load()
		gd := t.globalDepth.Load()
		si := atomic.LoadUint64(&dir[h&(1<<gd-1)])
		seg := segs[si]
		bucket := int(h >> 56 & (bucketsPerSeg - 1))
		full := true
		for s := 0; s < slotsPerBucket; s++ {
			if atomic.LoadUint64(&seg.slots[bucket*slotsPerBucket+s]) == 0 {
				full = false
				break
			}
		}
		if !full {
			return
		}
		ld := seg.localDepth
		if ld == gd {
			t.doubleDir(dir, gd)
			continue
		}
		// Split seg into two at depth ld+1. An entry keeps its bucket
		// index (the top hash bits), so a child bucket receives only the
		// entries of the parent's bucket of the same index: at most
		// slotsPerBucket, and it always has room.
		s0 := &segment{localDepth: ld + 1}
		s1 := &segment{localDepth: ld + 1}
		for i := 0; i < segSlots; i++ {
			sv := atomic.LoadUint64(&seg.slots[i])
			if sv == 0 {
				continue
			}
			key := t.heap.Load(blockKeyAddr(unpackAddr(sv)))
			kh := hash64(key)
			dst := s0
			if kh>>ld&1 == 1 {
				dst = s1
			}
			bkt := int(kh >> 56 & (bucketsPerSeg - 1))
			s := 0
			for s < slotsPerBucket && dst.slots[bkt*slotsPerBucket+s] != 0 {
				s++
			}
			if s == slotsPerBucket {
				panic(fmt.Sprintf("spash: split: child bucket %d is full, yet it receives only its parent bucket's %d entries", bkt, slotsPerBucket))
			}
			dst.slots[bkt*slotsPerBucket+s] = sv
		}
		newSegs := make([]*segment, len(segs), len(segs)+2)
		copy(newSegs, segs)
		newSegs = append(newSegs, s0, s1)
		i0, i1 := uint64(len(segs)), uint64(len(segs)+1)
		t.segs.Store(&newSegs)
		for j := uint64(0); j < uint64(len(dir)); j++ {
			if atomic.LoadUint64(&dir[j]) != si {
				continue
			}
			if j>>ld&1 == 1 {
				atomic.StoreUint64(&dir[j], i1)
			} else {
				atomic.StoreUint64(&dir[j], i0)
			}
		}
		t.stats.splits.Add(1)
	}
}

// doubleDir doubles the directory dir of global depth gd, duplicating every
// pointer. The caller holds the split barrier.
func (t *Table) doubleDir(dir []uint64, gd uint64) {
	newDir := make([]uint64, 2*len(dir))
	for j := range newDir {
		newDir[j] = atomic.LoadUint64(&dir[uint64(j)&(1<<gd-1)])
	}
	t.dir.Store(&newDir)
	t.globalDepth.Store(gd + 1)
	t.stats.doublings.Add(1)
}

// RebuildBlock reinserts one recovered KV block (single-threaded).
func (t *Table) RebuildBlock(rec epoch.BlockRecord) {
	t.rebuildInsert(rec.Addr)
}

func (t *Table) rebuildInsert(b nvm.Addr) {
	k := t.heap.Load(blockKeyAddr(b))
	h := hash64(k)
	for {
		seg, bucket := t.locate(h)
		base := bucket * slotsPerBucket
		placed := false
		for s := 0; s < slotsPerBucket; s++ {
			sv := seg.slots[base+s]
			if sv == 0 {
				seg.slots[base+s] = pack(h, b)
				placed = true
				break
			}
			if sv>>56 == h>>56 && t.heap.Load(blockKeyAddr(unpackAddr(sv))) == k {
				panic(fmt.Sprintf("spash: duplicate key %d during recovery", k))
			}
		}
		if placed {
			atomic.AddInt64(&t.count, 1)
			return
		}
		t.split(h)
	}
}

// RecoverEADR reopens a Spash (eADR) table after a crash: the persistent
// cache means every committed store survived, so all linked blocks (valid
// epoch stamp) are recovered; preallocated-but-unlinked blocks are
// reclaimed.
func RecoverEADR(h *nvm.Heap, cfg Config) *Table {
	cfg.Mode = ModeEADR
	cfg.Heap = h
	t := New(cfg)
	var blocks []nvm.Addr
	t.alloc.Recover(1, func(_ int, bi palloc.BlockInfo) bool {
		if bi.Header.Tag != BlockTag || bi.Header.Epoch == palloc.InvalidEpoch {
			return false
		}
		if bi.Header.Status != palloc.Allocated {
			return false
		}
		blocks = append(blocks, bi.Addr)
		return true
	})
	for _, b := range blocks {
		t.rebuildInsert(b)
	}
	return t
}
