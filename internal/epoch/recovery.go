package epoch

import (
	"fmt"
	"runtime"
	"time"

	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/palloc"
)

// BlockRecord describes one live block handed to the rebuild callback
// during recovery.
type BlockRecord struct {
	Block Block
	// Tag is the 8-bit user tag from allocation; structures sharing a
	// heap dispatch on it. (The epoch the block was last modified in is
	// its header's, Block.Epoch.)
	Tag uint8
	// Resurrected reports that the block had been deleted in an epoch
	// that did not persist; the deletion has been rolled back.
	Resurrected bool
}

// recordList is one recovery worker's rebuild records in scan order, held
// in fixed-capacity chunks: a heap's worth of records (half a million at
// the benchmark's size) is written once, where a single slice grown by
// append would copy it five times over on the way up.
type recordList struct {
	chunks [][]BlockRecord
}

const recordChunk = 1024

func (l *recordList) add(r BlockRecord) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == recordChunk {
		l.chunks = append(l.chunks, make([]BlockRecord, 0, recordChunk))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], r)
}

// Recover reopens a heap after a crash (heap.Crash) and reconstructs the
// epoch system's durable state, implementing the recovery procedure of
// Sec. 5.2:
//
//   - the persisted global epoch P is read from the durable root;
//   - the retire journal is read: pages of epochs ≤ P give, per block, the
//     newest journaled retirement epoch d; pages of later epochs are
//     erased (recoverJournal);
//   - ALLOCATED blocks whose epoch is at most P are recovered — unless
//     the journal holds a retirement d ≥ that epoch, which is how a
//     persisted deletion normally reads, the retired block's own header
//     never having been written back. A retirement older than the block's
//     creation epoch belongs to an earlier incarnation of the address (a
//     block is freed, and so reused, only after its retirement is durable)
//     and judges nothing;
//   - DELETED blocks — a stray write-back carried PRetire's mark to the
//     media — are judged by the same records: the block does not say when
//     it was deleted, so one whose creation persisted (epoch ≤ P) and whose
//     retirement the journal does not hold (no d ≥ that epoch: the record's
//     page was of an epoch > P, or never written) is resurrected. A
//     retirement too old to be in the journal has had its header
//     checkpointed, so the media cannot still show that mark;
//   - everything else — blocks with invalid epochs (preallocated but
//     unused), blocks created in unpersisted epochs, and blocks whose
//     deletion persisted — is reclaimed by the allocator.
//
// For every recovered block, rebuild is called so the caller can
// reconstruct its DRAM index; calls are made from a single goroutine,
// in address order, after the header scan completes.
// On an eADR heap every store was durable at the point of visibility, so
// all ALLOCATED blocks are recovered regardless of epoch, and there is no
// journal: the DELETED marks themselves are durable.
//
// The header scan is partitioned by slab range across runtime.GOMAXPROCS(0)
// goroutines, at most one per formatted slab (Stats.RecoveryWorkers is the
// count it ran on): the judgment above is independent per block, against a
// journal index built before the scan and only read during it. The
// watermark and the journal read run before it, on the caller's
// goroutine; resurrection write-backs from all workers and the
// journal's erasures are batched through nvm.FlushExtents under the single
// trailing fence, and per-worker results are merged in slab order, so the
// rebuilt state — persistent image, allocator free lists, and the
// rebuild-record sequence — does not depend on the worker count.
//
// The returned system starts a fresh epoch strictly above every recovered
// epoch. Recover panics if the heap was never formatted by New.
func Recover(h *nvm.Heap, cfg Config, rebuild func(BlockRecord)) *System {
	return RecoverInto(h, cfg, func(*System) func(BlockRecord) { return rebuild })
}

// RecoverInto is Recover for a caller whose rebuild target lives on the
// recovered system itself — a structure built over it. After the header
// scan, and before any record is replayed, it calls into with the
// recovered system; into returns the rebuild callback (nil for none), which
// then receives every record exactly as Recover's would. The records are
// held once, in the scan's own chunked lists, from scan to replay.
func RecoverInto(h *nvm.Heap, cfg Config, into func(*System) func(BlockRecord)) *System {
	cfg = cfg.withDefaults()
	if h.Load(rootMagicAddr) != rootMagic {
		panic(fmt.Sprintf("epoch: heap not formatted (magic %#x)", h.Load(rootMagicAddr)))
	}
	eadr := h.Mode() == nvm.ModeEADR

	s := newSystem(h, cfg)
	scanStart := time.Now()
	// The watermark P the header judgment below is made against. A crash
	// inside a close left it at the previous epoch, so there is nothing to
	// repair: it is re-asserted and persisted, and whatever later-epoch
	// lines leaked are judged below.
	p := h.Load(WatermarkAddr)
	h.Store(WatermarkAddr, p)
	h.Flush(WatermarkAddr)
	h.Fence()
	s.flushes.Add(1)
	s.fences.Add(1)
	s.global.Store(p + 2)
	s.persisted.Store(p)
	var (
		retired journalIndex
		erase   []nvm.Extent
	)
	if !eadr {
		retired, erase = s.recoverJournal(p)
	}

	// Per-worker accumulators. Workers own contiguous ascending slab
	// ranges, so concatenating in worker order reproduces the slab-order
	// record sequence; resurrection extents are flushed in batches under
	// the one trailing fence instead of per-block.
	type workerState struct {
		recs      recordList
		resurrect []nvm.Extent
		cursor    int   // this worker's position in the journal index
		journaled int64 // blocks a journal record reclaimed
	}
	ws := make([]workerState, runtime.GOMAXPROCS(0))
	// journaled reports whether the journal holds a persisted retirement of
	// the incarnation of b created in epoch c.
	journaled := func(st *workerState, b nvm.Addr, c uint64) bool {
		d, ok := retired.retiredAt(&st.cursor, b)
		if !ok || d < c {
			return false
		}
		st.journaled++
		return true
	}
	judge := func(w int, bi palloc.BlockInfo) bool {
		st := &ws[w]
		hdr := bi.Header
		if hdr.Epoch == palloc.InvalidEpoch {
			return false // preallocated, never used
		}
		switch hdr.Status {
		case palloc.Allocated:
			if !eadr && hdr.Epoch > p {
				return false // created in an unpersisted epoch
			}
			if journaled(st, bi.Addr, hdr.Epoch) {
				return false // retired in a persisted epoch
			}
			s.recoveredLive.Add(1)
			st.recs.add(BlockRecord{Block: Block{sys: s, addr: bi.Addr}, Tag: hdr.Tag})
			return true
		case palloc.Deleted:
			if eadr || hdr.Epoch > p {
				return false // the mark itself is durable, or the block never persisted
			}
			if journaled(st, bi.Addr, hdr.Epoch) {
				return false // deletion is part of the recovered prefix
			}
			// No record of this incarnation's retirement at or below P: it
			// was deleted in an epoch that was lost. Roll the deletion
			// back. The store is volatile here; the write-back rides the
			// batched FlushExtents below, under the trailing fence.
			hdr.Status = palloc.Allocated
			h.Store(bi.Addr, hdr.Pack())
			st.resurrect = append(st.resurrect, nvm.Extent{Addr: bi.Addr, Words: palloc.HeaderWords})
			s.resurrected.Add(1)
			s.recoveredLive.Add(1)
			st.recs.add(BlockRecord{Block: Block{sys: s, addr: bi.Addr}, Tag: hdr.Tag, Resurrected: true})
			return true
		default:
			return false
		}
	}
	s.recoveryWorkers = s.alloc.Recover(len(ws), judge)
	for i := range ws {
		if len(ws[i].resurrect) > 0 {
			h.FlushExtents(ws[i].resurrect)
		}
		s.journalRecordsApplied += ws[i].journaled
	}
	if len(erase) > 0 {
		h.FlushExtents(erase)
		s.journalPagesErased = int64(len(erase))
	}
	h.Fence()
	s.recoveryScanNS.Store(max(time.Since(scanStart).Nanoseconds(), 1))

	// The caller builds its rebuild target on s before any record is
	// replayed. Serialized merge: replay the rebuild records from one
	// goroutine, in slab (address) order, preserving the documented contract.
	rebuild := into(s)
	rebuildStart := time.Now()
	if rebuild != nil {
		for i := range ws {
			for _, chunk := range ws[i].recs.chunks {
				for _, r := range chunk {
					rebuild(r)
				}
			}
		}
	}
	s.recoveryRebuildNS.Store(max(time.Since(rebuildStart).Nanoseconds(), 1))

	// The watermark was re-persisted before the scan.
	cfg.Obs.Hit(obs.EvRecover, p, uint64(s.recoveredLive.Load()))
	s.startAdvancer()
	return s
}

// SimulateCrash stops the epoch system and power-fails the heap. opts
// controls how many dirty lines the cache happened to write back first.
// After SimulateCrash, use Recover on the same heap to come back up.
func (s *System) SimulateCrash(opts nvm.CrashOptions) {
	s.Stop()
	s.heap.Crash(opts)
}
