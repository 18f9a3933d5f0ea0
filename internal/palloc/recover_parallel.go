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

// formattedSlabs counts the formatted slab prefix. Slab formatting is
// sequential (see shard.go): the magic of slab s becomes durable before
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
// ascending per-worker ranges. Contiguity is what makes the parallel
// scan's merge deterministic: concatenating per-worker results in worker
// order reproduces the serial slab-order traversal exactly.
func slabRange(formatted, workers, w int) (lo, hi int) {
	per := (formatted + workers - 1) / workers
	lo = w * per
	hi = lo + per
	if hi > formatted {
		hi = formatted
	}
	if lo > formatted {
		lo = formatted
	}
	return lo, hi
}

// ScanProgress returns the number of slabs the current (or last)
// Recover/RecoverParallel/ScanParallel pass has finished scanning. It is
// safe to read concurrently with a running scan; cmd/bdrecover samples
// it for its live progress report.
func (al *Allocator) ScanProgress() int64 { return al.scanSlabs.Load() }

// ScanParallel is Scan with the formatted slab range partitioned across
// workers goroutines. fn is called concurrently from up to workers
// goroutines — it receives the worker index so callers can keep
// per-worker state without locking; calls within one slab range arrive
// in address order from a single goroutine. Like Scan it reads through
// the volatile view and must not run concurrently with Alloc/Free.
// A panic on a worker goroutine (e.g. a crash-simulation sentinel from a
// persist hook) is re-raised on the caller's goroutine.
func (al *Allocator) ScanParallel(workers int, fn func(worker int, bi BlockInfo)) {
	formatted := al.formattedSlabs()
	al.scanSlabs.Store(0)
	al.forEachSlab(formatted, workers, func(w, s int) {
		al.scanSlab(s, func(bi BlockInfo) bool {
			fn(w, bi)
			return true
		}, nil, nil)
		al.scanSlabs.Add(1)
	})
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

// forEachSlab runs body(worker, slab) over [0, formatted), partitioned
// contiguously across workers goroutines. workers <= 1 (or a range
// smaller than the worker count) degenerates to fewer goroutines; a
// panic on any worker is re-raised on the caller's goroutine so
// crash-simulation sentinels from persist hooks keep their type.
func (al *Allocator) forEachSlab(formatted, workers int, body func(worker, slab int)) {
	if workers > formatted {
		workers = formatted
	}
	if workers <= 1 {
		for s := 0; s < formatted; s++ {
			body(0, s)
		}
		return
	}
	var wg sync.WaitGroup
	var firstPanic atomic.Pointer[any]
	for w := 0; w < workers; w++ {
		lo, hi := slabRange(formatted, workers, w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					firstPanic.CompareAndSwap(nil, &r)
				}
			}()
			for s := lo; s < hi; s++ {
				body(w, s)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if r := firstPanic.Load(); r != nil {
		panic(*r)
	}
}

// RecoverParallel is Recover with the formatted slab range partitioned
// across workers goroutines. judge may be called concurrently from up to
// workers goroutines and receives the worker index (calls within one
// worker's slab range arrive in address order from a single goroutine).
// Reclaimed blocks are marked FREE and written back through batched
// nvm.FlushExtents calls instead of per-block Flush; one trailing Fence
// covers every batch.
//
// The rebuilt allocator state is bit-identical to Recover's: workers own
// contiguous ascending slab ranges and accumulate per-class free lists
// locally, and the merge concatenates them in worker order, reproducing
// the serial slab-order free lists exactly. Must run single-threaded
// (with respect to the allocator) before any Alloc/Free.
func (al *Allocator) RecoverParallel(workers int, judge func(worker int, bi BlockInfo) bool) {
	al.mu.Lock()
	defer al.mu.Unlock()
	for c := range al.free {
		al.free[c] = al.free[c][:0]
		al.active[c] = activeSlab{}
	}
	al.liveBlocks.Store(0)
	al.liveBytes.Store(0)
	for _, m := range al.mags {
		m.mu.Lock()
		for c := range m.free {
			m.free[c] = m.free[c][:0]
		}
		m.mu.Unlock()
	}
	formatted := al.formattedSlabs()
	al.formatted = formatted
	al.scanSlabs.Store(0)
	if workers < 1 {
		workers = 1
	}

	type workerState struct {
		free    [][]nvm.Addr
		reclaim []nvm.Extent
		blocks  int64
		bytes   int64
	}
	if workers > formatted {
		workers = formatted
	}
	if workers < 1 {
		workers = 1
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
		al.scanSlabs.Add(1)
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
	bytes := al.liveBytes.Load()
	if bytes > al.peakBytes.Load() {
		al.peakBytes.Store(bytes)
	}
}
