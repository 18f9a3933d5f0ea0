package epoch

import "bdhtm/internal/htm"

// RemovalStamps closes the "old sees new absence" hole in the Listing-1
// discipline, a pitfall found by the crash fuzzer (internal/crashfuzz):
//
// OldSeeNewException is detected by comparing the epoch stamp of the
// block an operation is about to revise. A removal, however, unlinks the
// block and leaves nothing behind — so an operation announced in epoch e
// that runs past an advance can observe the *absence* created by an
// epoch-e+1 removal and take the fresh-insert path with no stamp to
// compare. The media then holds a block created in epoch e for a key
// whose previous block was deleted in epoch e+1; recovery to P = e
// resurrects the deleted block (its deletion did not persist) *and*
// keeps the fresh insert — a duplicate key, violating BDL prefix
// consistency.
//
// The fix mirrors the epoch-stamp rule: every effectful removal raises a
// per-key-shard watermark to its operation epoch inside the transaction,
// and every absence-dependent path (a fresh insert, or a remove that
// found nothing) checks the watermark and restarts in a newer epoch if a
// newer removal has been recorded. Shards are transactional DRAM words,
// so HTM conflict detection (or, when the body runs as a session, the
// stamp word's line lock) orders racing removals and inserts for free;
// sharding by key hash keeps unrelated keys from contending. The stamps
// are transient state: after a crash they start over at zero, which is
// sound because the new system's epochs start strictly above every
// recovered epoch.
type RemovalStamps struct {
	shard [64]struct {
		e uint64
		_ [7]uint64 // one shard per cache line
	}
}

func (r *RemovalStamps) slot(k uint64) *uint64 {
	return &r.shard[(k*0x9e3779b97f4a7c15)>>58].e
}

// CheckTx guards an absence-dependent path inside a transaction: it
// aborts with OldSeeNewCode when a removal newer than opEpoch has been
// recorded for k's shard.
func (r *RemovalStamps) CheckTx(tx *htm.Tx, k, opEpoch uint64) {
	if tx.Load(r.slot(k)) > opEpoch {
		tx.Abort(OldSeeNewCode)
	}
}

// RaiseTx records an effectful removal of k in opEpoch, inside the
// transaction that unlinks the block.
func (r *RemovalStamps) RaiseTx(tx *htm.Tx, k, opEpoch uint64) {
	p := r.slot(k)
	if tx.Load(p) < opEpoch {
		tx.Store(p, opEpoch)
	}
}

// Ok is the non-transactional version of CheckTx: it reports whether an
// absence observed for k is safe to act on in opEpoch.
func (r *RemovalStamps) Ok(tm *htm.TM, k, opEpoch uint64) bool {
	return tm.DirectLoad(r.slot(k)) <= opEpoch
}
