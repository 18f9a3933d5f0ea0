package spash

import (
	"fmt"
	"sync/atomic"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

// Insert adds or updates k (upsert), reporting whether an existing value
// was replaced. ModeBD requires the caller's epoch worker; ModeEADR
// ignores w (it may be nil).
func (t *Table) Insert(w *epoch.Worker, k, v uint64) bool {
	h := hash64(k)
	if t.sys == nil {
		return t.insertEADR(h, k, v)
	}
	op := w.BeginInsert(BlockTag, 1+t.cfg.ValueWords, k, v)
	for {
		res := op.Run(t.tm, nil, func(tx *htm.Tx) {
			t.enter(tx)
			sp, b := t.lookupTx(tx, h, k)
			if b.IsNil() {
				if sp == nil {
					tx.Abort(splitCode)
				}
				tx.Store(sp, pack(h, op.Link(tx, k).Addr()))
				return
			}
			old := t.sys.BlockAt(b)
			if nb := op.Revise(tx, old, v); nb != old {
				tx.Store(sp, pack(h, nb.Addr()))
			}
		})
		if res.Committed {
			break
		}
		t.split(h) // splitCode
	}
	touched := op.Tracked().Addr()
	replaced := op.End()
	if !replaced {
		atomic.AddInt64(&t.count, 1)
	}
	t.hotspot(touched)
	return replaced
}

// insertEADR is Insert on a persistent cache: a block is durable once its
// stamp, which publishes it, is visible, and an update is a store.
func (t *Table) insertEADR(h, k, v uint64) bool {
	newBlk := t.alloc.AllocWords(1+t.cfg.ValueWords, BlockTag)
	t.initBlock(newBlk, k, v)
	var touched nvm.Addr
	for {
		res := t.tm.Run(nil, nil, func(tx *htm.Tx) {
			t.enter(tx)
			sp, b := t.lookupTx(tx, h, k)
			if touched = b; !b.IsNil() {
				tx.StoreAddr(t.heap, blockValueAddr(b), v)
				return
			}
			if sp == nil {
				tx.Abort(splitCode)
			}
			t.stampTx(tx, newBlk)
			tx.Store(sp, pack(h, newBlk))
			touched = newBlk
		})
		if res.Committed {
			break
		}
		t.split(h) // splitCode
	}
	replaced := touched != newBlk
	if replaced {
		t.alloc.Free(newBlk)
	} else {
		atomic.AddInt64(&t.count, 1)
	}
	t.hotspot(touched)
	return replaced
}

// lookupTx probes k's bucket, as a transaction or as a session: it returns
// k's slot and block, or — b nil — the bucket's first empty slot, nil when
// the bucket is full.
func (t *Table) lookupTx(tx *htm.Tx, h, k uint64) (sp *uint64, b nvm.Addr) {
	seg, bucket := t.locate(h)
	base := bucket * slotsPerBucket
	for s := 0; s < slotsPerBucket; s++ {
		p := &seg.slots[base+s]
		sv := tx.Load(p)
		if sv == 0 {
			if sp == nil {
				sp = p
			}
			continue
		}
		if sv>>56 != h>>56 {
			continue
		}
		if b := unpackAddr(sv); tx.LoadAddr(t.heap, blockKeyAddr(b)) == k {
			return p, b
		}
	}
	return sp, 0
}

// Get returns the value stored under k.
func (t *Table) Get(k uint64) (uint64, bool) {
	h := hash64(k)
	var v uint64
	var ok bool
	t.tm.Run(nil, nil, func(tx *htm.Tx) {
		t.enter(tx)
		v, ok = 0, false
		if _, b := t.lookupTx(tx, h, k); !b.IsNil() {
			v, ok = tx.LoadAddr(t.heap, blockValueAddr(b)), true
		}
	})
	return v, ok
}

// Remove deletes k, reporting whether it was present.
func (t *Table) Remove(w *epoch.Worker, k uint64) bool {
	h := hash64(k)
	if t.sys == nil {
		return t.removeEADR(h, k)
	}
	op := w.BeginRemove()
	op.Run(t.tm, nil, func(tx *htm.Tx) {
		t.enter(tx)
		sp, b := t.lookupTx(tx, h, k)
		if b.IsNil() {
			op.Absent(tx, k)
			return
		}
		op.Unlink(tx, k, t.sys.BlockAt(b))
		tx.Store(sp, 0)
	})
	removed := op.End()
	if removed {
		atomic.AddInt64(&t.count, -1)
	}
	return removed
}

// removeEADR is Remove on a persistent cache: the unlinked block is freed
// at once.
func (t *Table) removeEADR(h, k uint64) bool {
	var victim nvm.Addr
	t.tm.Run(nil, nil, func(tx *htm.Tx) {
		t.enter(tx)
		var sp *uint64
		if sp, victim = t.lookupTx(tx, h, k); !victim.IsNil() {
			tx.Store(sp, 0)
		}
	})
	if victim.IsNil() {
		return false
	}
	t.alloc.Free(victim)
	atomic.AddInt64(&t.count, -1)
	return true
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
