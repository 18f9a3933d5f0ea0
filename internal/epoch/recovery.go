package epoch

import (
	"fmt"
	"runtime"
	"time"
	"weak"

	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

// BlockRecord describes one live block handed to the rebuild callback
// during recovery. It is a pointer-free 16-byte value: the callback that
// needs the block's contents makes its handle on its own system
// (System.BlockAt(rec.Addr)).
type BlockRecord struct {
	// Addr is the block's heap address (of its header word).
	Addr nvm.Addr
	// Tag is the 8-bit user tag from allocation; structures sharing a
	// heap dispatch on it. (The epoch the block was last modified in is
	// its header's, Block.Epoch.)
	Tag uint8
	// Resurrected reports that the block had been deleted in an epoch
	// that did not persist; the deletion has been rolled back.
	Resurrected bool
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
// in address order, after the header scan completes. They replay the scan's
// verdicts from the heap itself: the scan leaves exactly the survivors
// non-FREE, so a second, read-only walk over the headers (Allocator.Scan)
// finds them again, and recovery holds no list of records. A record names
// its block by address; a callback that needs the block's contents uses
// RecoverInto, whose callback is handed the recovered system to make the
// handle on (System.BlockAt).
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
// then receives every record exactly as Recover's would. into must not
// allocate blocks on the system: the replay would hand them to the
// callback as survivors.
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
	// ranges, so concatenating in worker order lists the resurrected blocks
	// in address order; their extents are flushed in batches under the one
	// trailing fence instead of per-block, and the replay merges them to
	// mark its records.
	type workerState struct {
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
	// replayed. The replay is one walk over the surviving headers, from one
	// goroutine, in address order; it only loads. The resurrected blocks
	// are met in the same order, worker by worker.
	rebuild := into(s)
	rebuildStart := time.Now()
	if rebuild != nil {
		w, i := 0, 0
		s.alloc.Scan(func(bi palloc.BlockInfo) {
			for w < len(ws) && i == len(ws[w].resurrect) {
				w, i = w+1, 0
			}
			r := BlockRecord{Addr: bi.Addr, Tag: bi.Header.Tag}
			if w < len(ws) && ws[w].resurrect[i].Addr == bi.Addr {
				r.Resurrected = true
				i++
			}
			rebuild(r)
		})
	}
	s.recoveryRebuildNS.Store(max(time.Since(rebuildStart).Nanoseconds(), 1))
	s.startAdvancer()
	return s
}

// SimulateCrash stops the epoch system and power-fails the heap. opts
// controls how many dirty lines the cache happened to write back first.
// A power failure loses DRAM too: every index registered with OnCrash is
// released, so the crashed index and the one recovery rebuilds never
// coexist. After SimulateCrash, use Recover on the same heap to come back
// up; a structure whose index was released panics if it is used.
func (s *System) SimulateCrash(opts nvm.CrashOptions) {
	s.Stop()
	s.heap.Crash(opts)
	s.crashMu.Lock()
	hooks := s.crashHooks
	s.crashHooks = nil
	s.crashMu.Unlock()
	for _, release := range hooks {
		release()
	}
}

// OnCrash registers v's DRAM state with s: when s.SimulateCrash
// power-fails the heap, release(v) drops it, as a real crash would. s
// holds v weakly, so a v its user drops while s runs is collected as
// before, and its release is skipped. release must not hold v itself (a
// method expression such as (*T).drop does not).
func OnCrash[T any](s *System, v *T, release func(*T)) {
	p := weak.Make(v)
	s.crashMu.Lock()
	s.crashHooks = append(s.crashHooks, func() {
		if v := p.Value(); v != nil {
			release(v)
		}
	})
	s.crashMu.Unlock()
}
