package palloc

import (
	"sync"
	"sync/atomic"

	"bdhtm/internal/nvm"
)

// reclaimBatch bounds the number of reclaimed-block extents a recovery
// worker buffers before handing them to nvm.FlushExtents. Batching keeps
// the write-back allocation-free (FlushExtents pools its scratch) while
// bounding per-worker memory on heaps with many dead blocks.
const reclaimBatch = 256

// BlockInfo describes one block during a recovery scan.
type BlockInfo struct {
	Addr   nvm.Addr
	Header Header
}

// formattedSlabs counts the formatted slab prefix. Slab formatting is
// sequential (formatSlab runs under al.mu): the magic of slab s becomes durable before
// slab s+1 is touched, so the scan stops at the first non-magic header.
func (al *Allocator) formattedSlabs() int {
	n := 0
	for s := 0; s < al.slabs; s++ {
		if _, ok := slabClass(al.heap.Load(al.start + nvm.Addr(s*slabWords) + slabHeaderOff)); !ok {
			break
		}
		n = s + 1
	}
	return n
}

// slabRange partitions the formatted slab prefix into contiguous,
// ascending, non-empty per-worker ranges (workers <= formatted).
// Contiguity is what makes the partitioned scan's merge deterministic:
// concatenating per-worker results in worker order reproduces the
// slab-order traversal exactly.
func slabRange(formatted, workers, w int) (lo, hi int) {
	return w * formatted / workers, (w + 1) * formatted / workers
}

// scanSlab walks slab s and dispatches every block: FREE blocks are
// appended to free[class] (when free != nil), non-FREE blocks go to
// judge; a false verdict reclaims the block (marked FREE, extent queued
// on *reclaim for a batched flush) and frees it. With free == nil the
// walk is read-only and judge's verdict is ignored. A journal slab has no
// blocks to walk.
func (al *Allocator) scanSlab(s int, judge func(BlockInfo) bool, free [][]nvm.Addr, reclaim *[]nvm.Extent) (liveBlocks, liveBytes int64) {
	base := al.start + nvm.Addr(s*slabWords)
	class, _ := slabClass(al.heap.Load(base + slabHeaderOff))
	if class == journalClass {
		return 0, 0
	}
	n := slabCap(class)
	for i := 0; i < n; i++ {
		b := base + slabBlocksOff + nvm.Addr(i*classWords[class])
		hdr := UnpackHeader(al.heap.Load(b))
		hdr.Class = class // trust the slab, not a possibly-torn header
		switch {
		case hdr.Status == Free:
			if free != nil {
				free[class] = append(free[class], b)
			}
		case judge(BlockInfo{Addr: b, Header: hdr}):
			liveBlocks++
			liveBytes += int64(classWords[class] * nvm.WordBytes)
		default:
			if free == nil {
				continue // read-only scan
			}
			al.heap.Store(b, Header{Status: Free, Class: class}.Pack())
			*reclaim = append(*reclaim, nvm.Extent{Addr: b, Words: HeaderWords})
			if len(*reclaim) >= reclaimBatch {
				al.heap.FlushExtents(*reclaim)
				*reclaim = (*reclaim)[:0]
			}
			free[class] = append(free[class], b)
		}
	}
	return liveBlocks, liveBytes
}

// Scan calls fn for every non-FREE block in the heap, in address order,
// without modifying anything. It reads through the volatile view, so after
// a crash it sees exactly the persisted state. Intended for
// structure-specific recovery passes that need to inspect blocks before
// deciding their fate; it must not run concurrently with Alloc/Free.
func (al *Allocator) Scan(fn func(BlockInfo)) {
	for s := range al.formattedSlabs() {
		al.scanSlab(s, func(bi BlockInfo) bool {
			fn(bi)
			return true
		}, nil, nil)
	}
}

// forEachSlab runs body(worker, slab) over [0, formatted), partitioned
// contiguously across workers goroutines (1 <= workers <= formatted, or
// workers == 1 on an empty heap). A panic on any worker is re-raised on
// the caller's goroutine so crash-simulation sentinels from persist hooks
// keep their type.
func (al *Allocator) forEachSlab(formatted, workers int, body func(worker, slab int)) {
	if workers == 1 {
		for s := 0; s < formatted; s++ {
			body(0, s)
		}
		return
	}
	var wg sync.WaitGroup
	var firstPanic atomic.Pointer[any]
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					firstPanic.CompareAndSwap(nil, &r)
				}
			}()
			lo, hi := slabRange(formatted, workers, w)
			for s := lo; s < hi; s++ {
				body(w, s)
			}
		}(w)
	}
	wg.Wait()
	if r := firstPanic.Load(); r != nil {
		panic(*r)
	}
}

// Recover rebuilds the allocator's transient state after a heap crash by
// scanning slab and block headers, and returns the number of goroutines
// the scan ran on: workers, clamped to [1, formatted slabs]. The formatted
// slab range is partitioned contiguously across them. For every non-FREE
// block it calls judge with the index of the worker scanning it; calls
// within one worker's range arrive in address order from a single
// goroutine, so a judge that keeps per-worker state needs no lock, and a
// judge that is not safe for concurrent use passes workers = 1. A false
// verdict reclaims the block: it is marked FREE and written back through
// batched nvm.FlushExtents calls, and one trailing Fence covers every
// batch.
//
// The rebuilt state does not depend on the worker count: workers
// accumulate per-class free lists locally, and the merge concatenates them
// in worker order, reproducing the slab-order free lists exactly. Recover
// must run single-threaded (with respect to the allocator), before any
// Alloc/Free.
func (al *Allocator) Recover(workers int, judge func(worker int, bi BlockInfo) bool) int {
	al.mu.Lock()
	defer al.mu.Unlock()
	for c := range al.free {
		al.free[c] = al.free[c][:0]
		al.active[c] = activeSlab{}
	}
	al.liveBlocks.Store(0)
	al.liveBytes.Store(0)
	formatted := al.formattedSlabs()
	al.formatted = formatted
	workers = max(1, min(workers, formatted))

	type workerState struct {
		free    [][]nvm.Addr
		reclaim []nvm.Extent
		blocks  int64
		bytes   int64
	}
	ws := make([]workerState, workers)
	for w := range ws {
		ws[w].free = make([][]nvm.Addr, len(classWords))
	}
	al.forEachSlab(formatted, workers, func(w, s int) {
		st := &ws[w]
		blocks, bytes := al.scanSlab(s, func(bi BlockInfo) bool {
			return judge(w, bi)
		}, st.free, &st.reclaim)
		st.blocks += blocks
		st.bytes += bytes
	})
	for w := range ws {
		st := &ws[w]
		if len(st.reclaim) > 0 {
			al.heap.FlushExtents(st.reclaim)
		}
		for c := range al.free {
			al.free[c] = append(al.free[c], st.free[c]...)
		}
		al.liveBlocks.Add(st.blocks)
		al.liveBytes.Add(st.bytes)
	}
	al.heap.Fence()
	return workers
}
