package crashfuzz

import (
	"fmt"
	"sort"
)

// opRec is one completed write in a concurrent round's history. Gets are
// not recorded. Timestamps come from a shared atomic counter, so
// start/end give a total order on non-overlapping operations; epoch is
// the exact epoch the op committed in (0 for strict subjects).
//
// Inserts are upserts and always install their value; ok records the
// structure's "replaced" report. Removes change state only when ok (the
// key was present), so failed removes carry no effect.
type opRec struct {
	insert bool
	k, v   uint64
	ok     bool
	start  uint64
	end    uint64
	epoch  uint64
}

// effectful reports whether the op changed the structure's state.
func (o opRec) effectful() bool { return o.insert || o.ok }

// historyWithBaseline prefixes the per-worker histories with pseudo-ops
// representing the state recovered from the previous crash: inserts at
// epoch 0, timestamps 0 (before every real op).
func historyWithBaseline(baseline map[uint64]uint64, recs [][]opRec) []opRec {
	all := make([]opRec, 0, len(baseline)+len(recs)*8)
	for k, v := range baseline {
		all = append(all, opRec{insert: true, k: k, v: v, ok: true})
	}
	for _, r := range recs {
		all = append(all, r...)
	}
	return all
}

// checkWindow verifies a recovered state against a concurrent history
// under buffered durability: the state must be the end-of-epoch-P cut of
// some linearization of the history.
//
// Cut membership is decided by epoch: recovery keeps exactly the blocks
// whose (creation/deletion) epochs persisted, so an op is in the cut iff
// its exact commit epoch is <= P. Ordering evidence within the cut is
// real time ONLY: if o1 completed before o2 began, o2's transaction
// committed after o1's and supersedes it on the same key. Epoch order is
// deliberately NOT used as ordering evidence — an op announced in epoch
// e may commit after an op announced in e+1 (advancing only waits for
// the closing epoch to quiesce), so a lower epoch number does not mean
// an earlier linearization point.
//
// So for a recovered key k = v, the insert that produced v must (a) be
// in the cut, and (b) not be superseded: no other in-cut write to k may
// sit strictly after it in real time. For an absent key, every in-cut
// insert must have a possible later remove. Overlapping ops stay
// ambiguous and are accepted either way, so the check is sound: it only
// reports genuine violations. The cross-epoch hazard this cannot order
// (an old-epoch op revising a key a newer epoch already touched) is
// exactly what the OldSeeNewException forbids; when a structure misses
// that check, both versions of the key persist and recovery's duplicate
// detection reports it as a Recover error instead.
//
// Epoch order is, however, checked as a property of the history itself,
// across keys (checkEpochOrder): real-time order implies epoch order, the
// converse of what the cut may not assume.
//
// Strict subjects use the same check with the epoch filter disabled
// (buffered=false): every completed op is in the cut.
func checkWindow(history []opRec, persisted uint64, buffered bool, recovered map[uint64]uint64) error {
	inCut := func(o opRec) bool { return !buffered || o.epoch <= persisted }
	if buffered {
		if err := checkEpochOrder(history); err != nil {
			return err
		}
	}

	// after reports whether b can only linearize after a.
	after := func(b, a opRec) bool { return b.start > a.end }

	byKey := map[uint64][]opRec{}
	for _, o := range history {
		if o.effectful() {
			byKey[o.k] = append(byKey[o.k], o)
		}
	}

	for k, v := range recovered {
		var src *opRec
		for i := range byKey[k] {
			o := &byKey[k][i]
			if o.insert && o.v == v {
				src = o
				break
			}
		}
		if src == nil {
			return fmt.Errorf("recovered key %d = %d, but no successful insert produced that value", k, v)
		}
		if !inCut(*src) {
			return fmt.Errorf("recovered key %d = %d from an insert in epoch %d > persisted %d (future leaked into the cut)",
				k, v, src.epoch, persisted)
		}
		for _, o2 := range byKey[k] {
			if o2 == *src || !inCut(o2) {
				continue
			}
			if after(o2, *src) {
				what := "remove"
				if o2.insert {
					what = fmt.Sprintf("insert of %d", o2.v)
				}
				return fmt.Errorf("recovered key %d = %d is superseded: a later %s (epoch %d) is also inside the epoch-%d cut",
					k, v, what, o2.epoch, persisted)
			}
		}
	}

	for k, ops := range byKey {
		if _, present := recovered[k]; present {
			continue
		}
		for _, ins := range ops {
			if !ins.insert || !inCut(ins) {
				continue
			}
			// Absence is explainable if any in-cut successful remove can
			// linearize after this insert, or a later in-cut insert
			// replaced it (then presence of *that* value was checked
			// above... but it is absent too, so the chain must end in a
			// remove; checking "any possible-later remove" covers it).
			explained := false
			for _, rm := range ops {
				if rm.insert || !inCut(rm) {
					continue
				}
				if !after(ins, rm) { // rm not strictly before ins => rm may linearize after
					explained = true
					break
				}
			}
			if !explained {
				return fmt.Errorf("key %d absent after recovery, but insert of %d (epoch %d) is inside the epoch-%d cut with no possible later remove",
					k, ins.v, ins.epoch, persisted)
			}
		}
	}
	return nil
}

// checkEpochOrder requires e(o1) <= e(o2) for every pair of effectful ops
// with o1.end < o2.start, whatever their keys. That holds of any correct
// buffered history: o2 begins by reading the global epoch clock after o1
// ended, when the clock had already reached the epoch o1 read, and the
// clock only grows. A violation means an operation reported — or ran in — an
// epoch older than one already observed: an epoch cached from an earlier
// operation, which the per-key check cannot see when the keys differ.
func checkEpochOrder(history []opRec) error {
	ops := make([]opRec, 0, len(history))
	for _, o := range history {
		if o.effectful() {
			ops = append(ops, o)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	// newest[i] is the op of highest epoch among ops[:i+1].
	newest := make([]int, len(ops))
	for i := range ops {
		newest[i] = i
		if i > 0 && ops[newest[i-1]].epoch > ops[i].epoch {
			newest[i] = newest[i-1]
		}
	}
	for _, o2 := range ops {
		// ops[:n] are the ops that ended before o2 started.
		n := sort.Search(len(ops), func(i int) bool { return ops[i].end >= o2.start })
		if n == 0 {
			continue
		}
		if o1 := ops[newest[n-1]]; o1.epoch > o2.epoch {
			return fmt.Errorf("epoch order: op on key %d ended (t=%d) in epoch %d before op on key %d started (t=%d) in older epoch %d",
				o1.k, o1.end, o1.epoch, o2.k, o2.start, o2.epoch)
		}
	}
	return nil
}
