package skiplist

import (
	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/mwcas"
	"bdhtm/internal/nvm"
)

// BDL operations are epoch.Ops, the Listing-1 bracket: each runs in one
// epoch on the handle's worker, whose spare KV block is linked by a fresh
// insert or an out-of-place update, and the Op tracks and retires blocks
// after the commit. Towers live in the DRAM index heap and are rebuilt on
// recovery. An OldSeeNew restart re-runs the body in the current epoch
// inside Op.Run; a validation failure (retryCode, recaptureCode) comes
// back here and re-runs find, with the operation still open.

// insertBDL adds or updates k with buffered durability.
func (h *Handle) insertBDL(g *guard, k, v uint64) bool {
	l := h.l
	op := h.w.BeginInsert(NodeTag, epoch.KVPayloadWords, k, v)
	var p path
	for {
		found := l.find(g, k, &p)

		if found != 0 {
			// Update path: the node's value word names the key's block.
			ok := l.htmApply(op, g, nil, func(tx *htm.Tx) {
				if tx.LoadAddr(l.h, l.nextAddr(found, 0))&delMark != 0 {
					tx.Abort(retryCode) // node was removed; re-find
				}
				ba := nvm.Addr(tx.LoadAddr(l.h, l.valueAddr(found)))
				if g.teleporting() && !l.blockOK(ba) {
					tx.Abort(recaptureCode) // recycled tower
				}
				old := l.cfg.DataSys.BlockAt(ba)
				if nb := op.Revise(tx, old, v); nb != old {
					tx.StoreAddr(l.h, l.valueAddr(found), uint64(nb.Addr()))
				}
			})
			if ok {
				return op.End()
			}
			continue
		}

		// Insert path: link a fresh tower whose value word references the
		// spare NVM block.
		lvl := h.randLevel()
		node := l.allocNode(k, uint64(op.Spare().Addr()), lvl, p.succs[:lvl])
		entries := make([]mwcas.Entry, lvl)
		for i := 0; i < lvl; i++ {
			entries[i] = mwcas.Entry{Addr: l.nextAddr(p.preds[i], i), Old: p.succs[i], New: uint64(node)}
		}
		if l.htmApply(op, g, entries, func(tx *htm.Tx) { op.Link(tx, k) }) {
			l.count.Add(1)
			return op.End()
		}
		l.al.Free(node) // never became visible
	}
}

// removeBDL deletes k with buffered durability.
func (h *Handle) removeBDL(g *guard, k uint64) bool {
	l := h.l
	op := h.w.BeginRemove()
	var p path
	for {
		found := l.find(g, k, &p)
		if found == 0 {
			if op.AbsentDirect(k) {
				return op.End()
			}
			continue
		}
		lvl := l.levelClamped(found)
		entries := make([]mwcas.Entry, 0, 2*lvl)
		raceLost := false
		for i := 0; i < lvl; i++ {
			nxt := l.read(l.nextAddr(found, i))
			if nxt&delMark != 0 {
				raceLost = true
				break
			}
			entries = append(entries,
				mwcas.Entry{Addr: l.nextAddr(found, i), Old: nxt, New: nxt | delMark},
				mwcas.Entry{Addr: l.nextAddr(p.preds[i], i), Old: uint64(found), New: nxt})
		}
		if raceLost {
			if f := l.find(g, k, &p); f == 0 && op.AbsentDirect(k) {
				return op.End()
			}
			continue
		}
		ok := l.htmApply(op, g, entries, func(tx *htm.Tx) {
			ba := nvm.Addr(tx.LoadAddr(l.h, l.valueAddr(found)))
			if g.teleporting() && !l.blockOK(ba) {
				tx.Abort(recaptureCode) // recycled tower
			}
			op.Unlink(tx, k, l.cfg.DataSys.BlockAt(ba))
		})
		if ok {
			op.End()
			l.reap.retire(h.tid, found)
			l.count.Add(-1)
			return true
		}
	}
}
