package crashfuzz

import (
	"runtime"
	"sync/atomic"
	"testing"

	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/palloc"
)

// recInfo is one block recovery kept, as the allocator's scan of the
// recovered heap shows it (address order, the order recovery replays its
// records in), and whether recovery resurrected it: the crashed heap's
// scan showed it DELETED.
type recInfo struct {
	addr        nvm.Addr
	tag         uint8
	epoch       uint64
	resurrected bool
}

// recoveryCell is everything recovery produces for one
// (subject, workers) run of the identical seeded trace.
type recoveryCell struct {
	image       []uint64          // full post-recovery persistent image
	recs        []recInfo         // recovered blocks in address order (buffered subjects)
	dump        map[uint64]uint64 // logical contents via Get
	persisted   uint64            // recovery boundary P
	recovered   int64             // epoch.Stats RecoveredLive (buffered subjects)
	resurrected int64             // epoch.Stats Resurrected (buffered subjects)
}

// TestRecoverWorkerEquivalence is the worker-count contract of the
// recovery scan: the identical seeded pre-crash trace, run per subject,
// must recover to a bit-identical
// persistent image, the identical sequence of recovered blocks, and
// identical recovered/resurrected counters whether the header scan runs on 1, 2, 4,
// or 8 workers. The scan takes its worker count from GOMAXPROCS, which
// each cell sets (so no other test may run beside this one). The trace
// ends with unsynced removes fully evicted to media, so the resurrection
// write-back path is exercised too (asserted non-empty across the matrix),
// on blocks that straddle cache lines among them (three-word KV blocks
// packed densely; also asserted). Runs in CI's race lane, where the worker
// fan-out and the merge are also checked for data races.
func TestRecoverWorkerEquivalence(t *testing.T) {
	var resurrectedTotal, straddlersResurrected atomic.Int64
	t.Cleanup(func() {
		if resurrectedTotal.Load() == 0 {
			t.Error("no cell resurrected any block: the trace no longer covers the resurrection write-back path")
		}
		if straddlersResurrected.Load() == 0 {
			t.Error("no cell resurrected a block whose header and value sit on different cache lines")
		}
	})
	for _, subject := range Names() {
		t.Run(subject, func(t *testing.T) {
			base := runRecoveryCell(t, subject, 1)
			resurrectedTotal.Add(base.resurrected)
			for _, r := range base.recs {
				if r.resurrected && r.addr%nvm.LineWords >= 6 {
					straddlersResurrected.Add(1)
				}
			}
			for _, workers := range []int{2, 4, 8} {
				got := runRecoveryCell(t, subject, workers)
				compareCells(t, subject, workers, base, got)
			}
		})
	}
}

// runRecoveryCell drives one subject through the scripted trace, crashes with every dirty line written back (so
// unsynced deletions reach media and must be resurrected), recovers under
// GOMAXPROCS workers, and captures the full recovery output.
func runRecoveryCell(t *testing.T, subject string, workers int) recoveryCell {
	t.Helper()
	prev := runtime.GOMAXPROCS(workers)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	const keySpace = 64
	rec := obs.New()
	sub, err := NewSubject(subject)
	if err != nil {
		t.Fatal(err)
	}
	sub.Init(Env{
		Seed:      0x9a7a11e1,
		HeapWords: DefaultHeapWords,
		Workers:   1,
		Obs:       rec,
	})
	h := sub.Handle(0)
	rng := Mix(0x9a7a11e1, 0x0d1)
	next := func() uint64 {
		rng = Mix(rng, 1)
		return rng
	}
	opSeq := uint64(0)
	for i := 0; i < 240; i++ {
		if i > 0 && i%9 == 0 {
			sub.Advance()
		}
		r := next()
		k := (r >> 8) % keySpace
		switch r % 10 {
		case 0, 1, 2, 3, 4, 5:
			opSeq++
			h.Insert(k, opSeq)
		case 6, 7:
			h.Remove(k)
		default:
			h.Get(k)
		}
	}
	// Quiesce: the whole trace is persisted at boundary P.
	sub.Advance()
	sub.Advance()
	// Unsynced epilogue: remove half the keyspace and insert a few fresh
	// keys, then crash with EvictFraction 1. Every dirty header reaches
	// media: the deletions (creation <= P, no journal record: their epoch
	// never closed) must be resurrected, the fresh creations (epoch > P)
	// reclaimed.
	for k := uint64(0); k < keySpace/2; k++ {
		h.Remove(k)
	}
	for k := uint64(0); k < 8; k++ {
		opSeq++
		h.Insert(keySpace+k, opSeq)
	}
	sub.Crash(nvm.CrashOptions{EvictFraction: 1})
	b, buffered := sub.(*bufferedSubject)
	deleted := map[nvm.Addr]bool{}
	if buffered {
		b.st.Sys.Allocator().Scan(func(bi palloc.BlockInfo) {
			deleted[bi.Addr] = bi.Header.Status == palloc.Deleted
		})
	}
	if err := sub.Recover(); err != nil {
		t.Fatalf("%s workers=%d: %v", subject, workers, err)
	}

	cell := recoveryCell{dump: map[uint64]uint64{}, persisted: sub.PersistedEpoch()}
	if buffered {
		es := b.st.Sys.Stats()
		cell.recovered, cell.resurrected = es.RecoveredLive, es.Resurrected
		b.st.Sys.Allocator().Scan(func(bi palloc.BlockInfo) {
			cell.recs = append(cell.recs, recInfo{
				addr:        bi.Addr,
				tag:         bi.Header.Tag,
				epoch:       bi.Header.Epoch,
				resurrected: deleted[bi.Addr],
			})
		})
		if int64(len(cell.recs)) != cell.recovered {
			t.Fatalf("%s workers=%d: %d blocks live after recovery, epoch.Stats RecoveredLive %d",
				subject, workers, len(cell.recs), cell.recovered)
		}
	}
	heap := sub.Heap()
	cell.image = make([]uint64, heap.Words())
	for a := range cell.image {
		cell.image[a] = heap.PersistedLoad(nvm.Addr(a))
	}
	h = sub.Handle(0)
	for k := uint64(0); k < keySpace+8; k++ {
		if v, ok := h.Get(k); ok {
			cell.dump[k] = v
		}
	}
	return cell
}

func compareCells(t *testing.T, subject string, workers int, base, got recoveryCell) {
	t.Helper()
	if got.persisted != base.persisted {
		t.Errorf("%s workers=%d: recovered to epoch %d, 1 worker recovered to %d",
			subject, workers, got.persisted, base.persisted)
	}
	if got.recovered != base.recovered || got.resurrected != base.resurrected {
		t.Errorf("%s workers=%d: counters recovered=%d resurrected=%d, 1 worker recovered=%d resurrected=%d",
			subject, workers, got.recovered, got.resurrected, base.recovered, base.resurrected)
	}
	if len(got.recs) != len(base.recs) {
		t.Errorf("%s workers=%d: %d recovered blocks, 1 worker recovered %d",
			subject, workers, len(got.recs), len(base.recs))
	} else {
		for i := range base.recs {
			if got.recs[i] != base.recs[i] {
				t.Errorf("%s workers=%d: recovered block %d = %+v, 1 worker %+v",
					subject, workers, i, got.recs[i], base.recs[i])
				break
			}
		}
	}
	diffWords := 0
	firstDiff := -1
	for a := range base.image {
		if got.image[a] != base.image[a] {
			diffWords++
			if firstDiff < 0 {
				firstDiff = a
			}
		}
	}
	if diffWords != 0 {
		t.Errorf("%s workers=%d: persistent image differs from 1 worker's in %d words (first at %#x: got %#x want %#x)",
			subject, workers, diffWords, firstDiff, got.image[firstDiff], base.image[firstDiff])
	}
	if len(got.dump) != len(base.dump) {
		t.Errorf("%s workers=%d: %d live keys, 1 worker recovered %d",
			subject, workers, len(got.dump), len(base.dump))
	}
	for k, v := range base.dump {
		if gv, ok := got.dump[k]; !ok || gv != v {
			t.Errorf("%s workers=%d: key %d = %d,%v, 1 worker %d", subject, workers, k, gv, ok, v)
			break
		}
	}
}
