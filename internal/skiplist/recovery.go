package skiplist

import (
	"bdhtm/internal/epoch"
	"bdhtm/internal/mwcas"
	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

// KV is one recovered key/value pair.
type KV struct{ Key, Value uint64 }

// Ascend walks the list in key order, calling fn until it returns false.
// The walk is not linearizable; use it for tests, diagnostics, and bulk
// export. For BDL lists the value is read through the NVM block.
func (l *List) Ascend(fn func(k, v uint64) bool) {
	x := nvm.Addr(l.read(l.nextAddr(l.head, 0)) &^ delMark)
	for x != 0 {
		if l.read(l.nextAddr(x, 0))&delMark == 0 {
			k := l.key(x)
			v := l.read(l.valueAddr(x))
			if l.cfg.Variant == BDL {
				v = l.cfg.DataSys.BlockAt(nvm.Addr(v)).Value()
			}
			if !fn(k, v) {
				return
			}
		}
		x = nvm.Addr(l.read(l.nextAddr(x, 0)) &^ delMark)
	}
}

// Successor returns the smallest key strictly greater than k, with its
// value.
func (h *Handle) Successor(k uint64) (uint64, uint64, bool) {
	l := h.l
	l.reap.enter(h.tid)
	defer l.reap.exit(h.tid)
	var p path
	l.find(&guard{}, k+1, &p)
	s := p.succs[0]
	if s == 0 {
		return 0, 0, false
	}
	key := l.key(nvm.Addr(s))
	var v uint64
	if l.cfg.Variant == BDL {
		v = l.cfg.DataSys.BlockAt(nvm.Addr(l.read(l.valueAddr(nvm.Addr(s))))).Value()
	} else {
		v = l.read(l.valueAddr(nvm.Addr(s)))
	}
	return key, v, true
}

// RebuildBlock reinserts one recovered NVM block into a fresh BDL list.
// Recovery is single-threaded; plain stores suffice. Blocks must carry
// this list's NodeTag.
func (l *List) RebuildBlock(rec epoch.BlockRecord) {
	if l.cfg.Variant != BDL {
		panic("skiplist: RebuildBlock is for BDL lists")
	}
	k := l.cfg.DataSys.BlockAt(rec.Addr).Key()
	var p path
	if l.find(&guard{}, k, &p) != 0 {
		panic("skiplist: duplicate key during BDL rebuild (BDL invariant violated)")
	}
	// Deterministic-height rebuild keeps expected O(log n) search depth.
	lvl := 1
	r := k*0x9e3779b97f4a7c15 + 0x7f4a7c15
	for r&1 == 1 && lvl < maxLevel {
		lvl++
		r >>= 1
	}
	node := l.allocNode(k, uint64(rec.Addr), lvl, p.succs[:lvl])
	for i := 0; i < lvl; i++ {
		l.h.Store(l.nextAddr(p.preds[i], i), uint64(node))
	}
	l.count.Add(1)
}

// RecoverDL rebuilds a DL (or PNoFlush/PHTMMwCAS, though those are not
// crash consistent) skiplist after heap.Crash:
//
//  1. locate the persisted head sentinel,
//  2. resolve any words still holding PMwCAS descriptor pointers (rolling
//     interrupted operations forward or backward from their persisted
//     descriptors),
//  3. walk the level-0 chain collecting live pairs (reachability decides:
//     nodes that were allocated but whose link never committed are
//     garbage),
//  4. reset the allocator and rebuild a fresh list.
//
// It returns the new list and the number of recovered pairs.
func RecoverDL(h *nvm.Heap, cfg Config) (*List, int) {
	cfg = cfg.withDefaults()
	scratch := palloc.New(h)
	var head nvm.Addr
	scratch.Scan(func(bi palloc.BlockInfo) {
		if bi.Header.Tag == headTag {
			head = bi.Addr
		}
	})
	var pairs []KV
	if !head.IsNil() {
		maxLevel := int(h.Load(palloc.Payload(head) + offLevel))
		x := head
		for {
			lvl := int(h.Load(palloc.Payload(x) + offLevel))
			if lvl > maxLevel {
				break // torn node; stop conservatively
			}
			for i := 0; i < lvl; i++ {
				mwcas.RecoverWord(h, palloc.Payload(x)+offNext+nvm.Addr(i))
			}
			mwcas.RecoverWord(h, palloc.Payload(x)+offValue)
			nxt := h.Load(palloc.Payload(x)+offNext) &^ delMark
			if x != head && h.Load(palloc.Payload(x)+offNext)&delMark == 0 {
				pairs = append(pairs, KV{Key: h.Load(palloc.Payload(x) + offKey), Value: h.Load(palloc.Payload(x) + offValue)})
			}
			if nxt == 0 {
				break
			}
			x = nvm.Addr(nxt)
		}
	}
	// Reset the heap's allocator state entirely and rebuild.
	fresh := palloc.New(h)
	fresh.Recover(1, func(int, palloc.BlockInfo) bool { return false })
	cfg.IndexHeap = h
	l := New(cfg)
	hd := l.NewHandle()
	for _, kv := range pairs {
		hd.Insert(kv.Key, kv.Value)
	}
	hd.Close()
	return l, len(pairs)
}
