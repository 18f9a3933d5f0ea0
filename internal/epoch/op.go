package epoch

import "bdhtm/internal/htm"

// Op is one buffered-durable write operation: the discipline of the
// paper's Listing 1 (Sec. 3), written once for every structure on the
// epoch system. A structure writes only its search and link logic, as the
// body Run executes, and tells the Op what the body found:
//
//   - Link, for a fresh insert: the key's absence is checked against newer
//     removals (removal.go) and the spare block is stamped with the
//     operation's epoch and returned, to be linked;
//   - Revise, for a key that is present: the three-way epoch compare —
//     abort with OldSeeNewCode on a newer block, update a current-epoch
//     block in place, or stamp the spare to replace an older one, which is
//     retired;
//   - Unlink, for a removal: the epoch compare, the removal stamp raised,
//     the unlinked block retired;
//   - Absent (AbsentDirect outside a transaction), for a miss.
//
// Three rules hold by construction, each once, here (DESIGN §6):
//
//   - the spare is allocated outside any transaction with an invalid
//     epoch, and stamped only by the method that links it, so an attempt
//     that updated in place commits no stamped, unlinked block (pitfall 1);
//   - every absence the body acts on is checked against the removal
//     stamps (pitfall 3);
//   - Run forgets the decisions at the start of every attempt — a
//     transaction retry, a session restart, a restart in a newer epoch —
//     and after every attempt that did not commit, so End applies only the
//     committed attempt's (pitfall 4).
//
// End runs the post-commit half — PRetire, PTrack, the spare consumed —
// and EndOp. An Op lives in its Worker; it is single-goroutine state.
type Op struct {
	w *Worker

	// The spare's shape and initial payload (the key, then v in every
	// other word); words is 0 for an operation that links nothing.
	tag   uint8
	words int
	k, v  uint64

	// The current attempt's decisions.
	track, retire Block
	found         bool
}

// BeginInsert begins an operation that may link a new block (Listing 1
// lines 9-12): BeginOp, then the worker's spare block — a tag block of
// words payload words, allocated when the worker has none or holds one of
// another shape, which it deletes — initialised outside any transaction
// with an invalid epoch, key k in payload word 0 and v in every other word.
func (w *Worker) BeginInsert(tag uint8, words int, k, v uint64) *Op {
	op := &w.op
	*op = Op{w: w, tag: tag, words: words, k: k, v: v}
	op.begin()
	return op
}

// BeginRemove begins an operation that links no block: a removal.
func (w *Worker) BeginRemove() *Op {
	op := &w.op
	*op = Op{w: w}
	op.begin()
	return op
}

func (op *Op) begin() {
	w := op.w
	w.BeginOp()
	if op.words == 0 {
		return
	}
	if !w.spare.IsNil() && (w.spareTag != op.tag || w.spareWords != op.words) {
		w.PDelete(w.spare)
		w.spare = Block{}
	}
	if w.spare.IsNil() {
		w.spare = w.PNew(op.words, op.tag)
		w.spareTag, w.spareWords = op.tag, op.words
	}
	b := w.spare
	b.ResetEpoch()
	b.Store(0, op.k)
	for i := 1; i < op.words; i++ {
		b.Store(i, op.v)
	}
}

// restart abandons the operation and begins it again in the current epoch:
// the OldSeeNewException path of Listing 1.
func (op *Op) restart() {
	op.reset()
	op.w.AbortOp()
	op.begin()
}

func (op *Op) reset() {
	op.track, op.retire, op.found = Block{}, Block{}, false
}

// Run runs body through the worker (Worker.Run: transaction attempts, then
// a session), forgetting the decisions at the start of every attempt. An
// OldSeeNewCode abort restarts the operation in the current epoch and runs
// body again; any other explicit abort returns to the structure, whose
// operation stays open (it splits, or searches again, and calls Run
// again). A nil Op — a structure flavor with no epoch system — runs body
// on the TM directly.
func (op *Op) Run(tm *htm.TM, preWalk func(), body func(tx *htm.Tx)) htm.Result {
	if op == nil {
		return tm.Run(nil, preWalk, body)
	}
	for {
		res := op.w.Run(tm, preWalk, func(tx *htm.Tx) {
			op.reset()
			body(tx)
		})
		if res.Committed {
			return res
		}
		op.reset()
		if res.Code != OldSeeNewCode {
			return res
		}
		op.restart()
	}
}

// Tracked returns the block End will track — the linked spare, or the
// block revised in place — for a structure that applies a policy of its
// own to it after the commit; nil before a committed Run.
func (op *Op) Tracked() Block { return op.track }

// Spare returns the block Link would link, for a structure that stores its
// address before the body decides.
func (op *Op) Spare() Block { return op.w.spare }

// Link decides a fresh insert of k: there is no block to epoch-compare, so
// the absence itself is checked against newer removals; then the spare is
// stamped with the operation's epoch (Listing 1 line 17). It returns the
// block to link.
func (op *Op) Link(tx *htm.Tx, k uint64) Block {
	e := op.w.opEpoch
	op.w.sys.removals.checkTx(tx, k, e)
	b := op.w.spare
	b.SetEpochTx(tx, e)
	op.track = b
	return b
}

// Revise decides an update of old, the present key's block, to value v
// (Listing 1 lines 20-29): a block from a newer epoch aborts with
// OldSeeNewCode; one from the operation's epoch is updated in place (pSet)
// and tracked again — an early pass may have written it back since its
// first tracking; an older one is replaced by the stamped spare and
// retired. It returns the block to link: old itself after an in-place
// update.
func (op *Op) Revise(tx *htm.Tx, old Block, v uint64) Block {
	e := op.w.opEpoch
	be := old.EpochTx(tx)
	if be > e {
		tx.Abort(OldSeeNewCode)
	}
	op.found = true
	if be == e {
		old.SetValueTx(tx, v)
		op.track = old
		return old
	}
	b := op.w.spare
	b.SetEpochTx(tx, e)
	op.track, op.retire = b, old
	return b
}

// Unlink decides the removal of key k, whose block is old: a block from a
// newer epoch aborts with OldSeeNewCode; otherwise the removal is stamped
// for k's shard and old is retired after the commit.
func (op *Op) Unlink(tx *htm.Tx, k uint64, old Block) {
	e := op.w.opEpoch
	if old.EpochTx(tx) > e {
		tx.Abort(OldSeeNewCode)
	}
	op.w.sys.removals.raiseTx(tx, k, e)
	op.retire, op.found = old, true
}

// Absent decides a miss of k: it aborts with OldSeeNewCode when the
// absence may be a newer epoch's removal.
func (op *Op) Absent(tx *htm.Tx, k uint64) {
	op.w.sys.removals.checkTx(tx, k, op.w.opEpoch)
}

// AbsentDirect is Absent for a miss seen outside a transaction. It reports
// whether the operation may act on it; when it may not, the operation has
// restarted in the current epoch and must search again.
func (op *Op) AbsentDirect(k uint64) bool {
	if op.w.sys.removals.ok(k, op.w.opEpoch) {
		return true
	}
	op.restart()
	return false
}

// End completes the operation after its body committed: the retired block
// is PRetired, the linked or revised block PTracked, a linked spare
// consumed, and the worker leaves its epoch (EndOp). It reports whether
// the body found the key (Revise or Unlink).
func (op *Op) End() (found bool) {
	w := op.w
	if !op.retire.IsNil() {
		w.PRetire(op.retire)
	}
	if !op.track.IsNil() {
		w.PTrack(op.track)
		if op.track == w.spare {
			w.spare = Block{}
		}
	}
	found = op.found
	op.reset()
	w.EndOp()
	return found
}

// Abort ends the operation with no effect, for a structure that gives up
// on it (a full table).
func (op *Op) Abort() {
	op.reset()
	op.w.AbortOp()
}
