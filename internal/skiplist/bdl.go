package skiplist

import (
	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/mwcas"
	"bdhtm/internal/nvm"
)

// BDL operations follow the Listing-1 discipline: each operation runs in
// one epoch, KV blocks are preallocated outside the transaction, stamped
// with the operation's epoch inside it, and persisted / retired after it
// commits. Towers live in the DRAM index heap and are rebuilt on recovery.

// insertBDL adds or updates k with buffered durability.
func (h *Handle) insertBDL(g *guard, k, v uint64) bool {
	l := h.l
retryRegist:
	opEpoch := h.w.BeginOp()
	if h.prealloc.IsNil() {
		h.prealloc = h.w.NewKV(NodeTag)
	}
	newBlk := h.prealloc
	newBlk.InitKV(k, v)

	for {
		preds, succs, found := l.find(g, k)

		if found != 0 {
			// Update path: epoch-check the existing block inside the
			// transaction (Listing 1 lines 20-29).
			var retire, persist epoch.Block
			var usedPrealloc bool
			res := l.htmApply(h.w, g, nil,
				func(tx *htm.Tx) {
					// A failed attempt may have run this closure to
					// completion (conflicts surface at commit) and a
					// session may restart it; reset the captured outputs
					// so a retry that takes a different branch cannot
					// inherit a stale retire/persist pair.
					retire, persist, usedPrealloc = epoch.Block{}, epoch.Block{}, false
					if tx.LoadAddr(l.h, l.nextAddr(found, 0))&delMark != 0 {
						tx.Abort(retryCode) // node was removed; re-find
					}
					ba := nvm.Addr(tx.LoadAddr(l.h, l.valueAddr(found)))
					if g.teleporting() && !l.blockOK(ba) {
						tx.Abort(recaptureCode) // recycled tower
					}
					blk := l.cfg.DataSys.BlockAt(ba)
					be := blk.EpochTx(tx)
					switch {
					case be > opEpoch:
						tx.Abort(epoch.OldSeeNewCode)
					case be < opEpoch:
						newBlk.SetEpochTx(tx, opEpoch)
						tx.StoreAddr(l.h, l.valueAddr(found), uint64(newBlk.Addr()))
						retire, persist, usedPrealloc = blk, newBlk, true
					default:
						blk.SetValueTx(tx, v)
					}
				},
			)
			switch res {
			case applyOldSeeNew:
				h.w.AbortOp()
				goto retryRegist
			case applyRetry:
				continue
			}
			h.finishOp(newBlk, usedPrealloc, retire, persist)
			return true
		}

		// Insert path: link a fresh tower whose value word references the
		// preallocated NVM block.
		lvl := h.randLevel()
		node := l.allocNode(k, uint64(newBlk.Addr()), lvl, succs[:lvl])
		entries := make([]mwcas.Entry, lvl)
		for i := 0; i < lvl; i++ {
			entries[i] = mwcas.Entry{Addr: l.nextAddr(preds[i], i), Old: succs[i], New: uint64(node)}
		}
		res := l.htmApply(h.w, g, entries,
			func(tx *htm.Tx) {
				// The absence this insert acts on may have been created by a
				// removal from a newer epoch (no block left to epoch-check).
				l.removals.CheckTx(tx, k, opEpoch)
				newBlk.SetEpochTx(tx, opEpoch)
			},
		)
		if res == applyOK {
			l.count.Add(1)
			h.finishOp(newBlk, true, epoch.Block{}, newBlk)
			return false
		}
		l.al.Free(node) // never became visible
		if res == applyOldSeeNew {
			h.w.AbortOp()
			goto retryRegist
		}
	}
}

// removeBDL deletes k with buffered durability.
func (h *Handle) removeBDL(g *guard, k uint64) bool {
	l := h.l
retryRegist:
	opEpoch := h.w.BeginOp()
	for {
		preds, _, found := l.find(g, k)
		if found == 0 {
			if !l.removals.Ok(l.cfg.TM, k, opEpoch) {
				h.w.AbortOp()
				goto retryRegist
			}
			h.w.EndOp()
			return false
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
				mwcas.Entry{Addr: l.nextAddr(preds[i], i), Old: uint64(found), New: nxt})
		}
		if raceLost {
			if _, _, f := l.find(g, k); f == 0 {
				if !l.removals.Ok(l.cfg.TM, k, opEpoch) {
					h.w.AbortOp()
					goto retryRegist
				}
				h.w.EndOp()
				return false
			}
			continue
		}
		var retire epoch.Block
		res := l.htmApply(h.w, g, entries,
			func(tx *htm.Tx) {
				ba := nvm.Addr(tx.LoadAddr(l.h, l.valueAddr(found)))
				if g.teleporting() && !l.blockOK(ba) {
					tx.Abort(recaptureCode) // recycled tower
				}
				blk := l.cfg.DataSys.BlockAt(ba)
				if blk.EpochTx(tx) > opEpoch {
					tx.Abort(epoch.OldSeeNewCode)
				}
				l.removals.RaiseTx(tx, k, opEpoch)
				retire = blk
			},
		)
		switch res {
		case applyOldSeeNew:
			h.w.AbortOp()
			goto retryRegist
		case applyRetry:
			continue
		}
		h.w.PRetire(retire)
		l.reap.retire(h.tid, found)
		l.count.Add(-1)
		h.w.EndOp()
		return true
	}
}

// finishOp applies the post-commit half of the Listing-1 pattern.
func (h *Handle) finishOp(newBlk epoch.Block, usedPrealloc bool, retire, persist epoch.Block) {
	if usedPrealloc {
		h.prealloc = epoch.Block{}
	}
	if !retire.IsNil() {
		h.w.PRetire(retire)
	}
	if !persist.IsNil() {
		h.w.PTrack(persist)
	}
	h.w.EndOp()
}
