package epoch

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"bdhtm/internal/nvm"
)

// TestResurrectionWriteBackBatched pins the batched resurrection
// write-back: recovery must flush each cache line covering a resurrected
// header exactly once (headers sharing a line ride one clwb via
// FlushExtents), under a trailing fence, instead of issuing one flush
// per resurrected block. It also sanity-checks the media accounting for
// the recovery interval: media bytes written are at least the useful
// payload bytes.
func TestResurrectionWriteBackBatched(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			h, s := newManual(t, 1<<16)
			w := s.Register()
			blocks := make([]Block, n)
			for i := range blocks {
				blocks[i] = putKV(w, uint64(i), uint64(i)*3+1)
			}
			s.Sync()
			// Retire every block in the active (never persisted) epoch and
			// force the DELETED markers to media: recovery must resurrect
			// all n.
			for _, b := range blocks {
				w.BeginOp()
				w.PRetire(b)
				w.EndOp()
			}
			s.SimulateCrash(nvm.CrashOptions{EvictFraction: 1})

			var (
				mu     sync.Mutex
				events []struct {
					pt   nvm.PersistPoint
					line uint64
				}
			)
			h.SetPersistHook(func(pt nvm.PersistPoint, a nvm.Addr) {
				mu.Lock()
				events = append(events, struct {
					pt   nvm.PersistPoint
					line uint64
				}{pt, a.Line()})
				mu.Unlock()
			})
			before := h.Stats()
			var resurrected []nvm.Addr
			s2 := Recover(h, Config{Manual: true, RecoveryWorkers: workers}, func(r BlockRecord) {
				if r.Resurrected {
					resurrected = append(resurrected, r.Block.Addr())
				}
			})
			h.SetPersistHook(nil)
			delta := h.Stats().Sub(before)

			if len(resurrected) != n {
				t.Fatalf("resurrected %d blocks, want %d", len(resurrected), n)
			}
			if got := s2.Stats().Resurrected; got != n {
				t.Fatalf("Stats().Resurrected = %d, want %d", got, n)
			}

			// Each line covering a resurrected header must be flushed
			// exactly once: more means the batching regressed to per-block
			// flushes, fewer means a resurrection never reached media.
			wantLines := map[uint64]bool{}
			for _, a := range resurrected {
				wantLines[a.Line()] = true
			}
			gotFlushes := map[uint64]int{}
			lastResFlush, lastFence := -1, -1
			for i, ev := range events {
				switch ev.pt {
				case nvm.PointFlush:
					if wantLines[ev.line] {
						gotFlushes[ev.line]++
						lastResFlush = i
					}
				case nvm.PointFence:
					lastFence = i
				}
			}
			if len(gotFlushes) != len(wantLines) {
				t.Fatalf("flushed %d distinct resurrection lines, want %d", len(gotFlushes), len(wantLines))
			}
			for line, cnt := range gotFlushes {
				if cnt != 1 {
					t.Fatalf("resurrection line %#x flushed %d times, want exactly 1 (batched)", line, cnt)
				}
			}
			if len(wantLines) >= n {
				t.Fatalf("headers never share a line (%d lines for %d blocks): the coalescing assertion is vacuous", len(wantLines), n)
			}
			if lastFence < lastResFlush {
				t.Fatalf("no fence after the last resurrection flush (flush at event %d, last fence at %d)", lastResFlush, lastFence)
			}
			if delta.MediaBytes < delta.UsefulBytes {
				t.Fatalf("recovery media accounting inverted: %d media bytes < %d useful bytes", delta.MediaBytes, delta.UsefulBytes)
			}
			if delta.UsefulBytes == 0 {
				t.Fatal("recovery wrote no useful bytes despite resurrections")
			}
		})
	}
}

// TestRecoverAllocatesRecordsOnce pins the chunked record list: recovering
// N live blocks may allocate their N rebuild records, a quarter again for
// everything else, and a constant — where one slice grown by append
// allocated five times the records on the way up, all of it live between
// two collections at the moment a recovering process's memory peaks.
func TestRecoverAllocatesRecordsOnce(t *testing.T) {
	const slabs = 64
	const n = slabs * 1022 // KV blocks per 4096-word slab: whole slabs, so no free list to build
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			h, s := newManual(t, 1<<19)
			w := s.Register()
			for i := 0; i < n; i++ {
				putKV(w, uint64(i), uint64(i))
			}
			s.Sync()
			s.SimulateCrash(nvm.CrashOptions{})

			var got int
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s2 := Recover(h, Config{Manual: true, RecoveryWorkers: workers}, func(BlockRecord) { got++ })
			runtime.ReadMemStats(&after)
			if got != n {
				t.Fatalf("recovered %d blocks, want %d", got, n)
			}
			records := uint64(n) * uint64(unsafe.Sizeof(BlockRecord{}))
			limit := records*5/4 + 256<<10
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
				t.Fatalf("Recover of %d blocks allocated %d bytes (%.2f x the records), want <= %d", n, alloc, float64(alloc)/float64(records), limit)
			}
			s2.Stop()
		})
	}
}
