package epoch

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"bdhtm/internal/nvm"
)

// withProcs sets GOMAXPROCS to n for the rest of the test, and so the
// number of goroutines Recover's header scan runs on (at most one per
// formatted slab).
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestRecoverScanRunsOnGOMAXPROCSWorkers: with no knob to ask for it, a
// default-config Recover partitions its header scan across GOMAXPROCS
// goroutines, one per formatted slab at most, and reports the count it
// used; a system made by New reports none.
func TestRecoverScanRunsOnGOMAXPROCSWorkers(t *testing.T) {
	withProcs(t, 4)
	h, s := newManual(t, 1<<17)
	if got := s.Stats().RecoveryWorkers; got != 0 {
		t.Fatalf("fresh system reports %d recovery workers", got)
	}
	w := s.Register()
	for i := 0; i < 4*1362; i++ { // four slabs of KV blocks
		putKV(w, uint64(i), uint64(i))
	}
	s.Sync()
	if f := s.Allocator().FootprintBytes() / (4096 * nvm.WordBytes); f < 4 {
		t.Fatalf("%d formatted slabs, want at least 4", f)
	}
	s.SimulateCrash(nvm.CrashOptions{})
	s2 := Recover(h, Config{}, nil)
	defer s2.Stop()
	if got := s2.Stats().RecoveryWorkers; got != 4 {
		t.Fatalf("Recover under GOMAXPROCS 4 reports %d scan workers, want 4", got)
	}
}

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
			withProcs(t, workers)
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
			s2 := Recover(h, Config{Manual: true}, func(r BlockRecord) {
				if r.Resurrected {
					resurrected = append(resurrected, r.Addr)
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

// TestRecoverAllocationIsConstant pins the replay from the heap: recovery
// holds no record per block — the survivors are walked again in the heap
// once the scan has judged them — so recovering 64 whole slabs of live
// blocks allocates a constant, whatever their number. A per-record buffer
// (16 bytes a block, a megabyte here) fails it.
func TestRecoverAllocationIsConstant(t *testing.T) {
	const slabs = 64
	const n = slabs * 1362 // KV blocks per 4096-word slab: whole slabs, so no free list to build
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withProcs(t, workers)
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
			s2 := Recover(h, Config{Manual: true}, func(BlockRecord) { got++ })
			runtime.ReadMemStats(&after)
			if got != n {
				t.Fatalf("recovered %d blocks, want %d", got, n)
			}
			const limit = 128 << 10 // ≈ 55 KiB measured at 1 and 4 workers
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
				t.Fatalf("Recover of %d blocks allocated %d bytes (%.1f per block), want <= %d whatever the count",
					n, alloc, float64(alloc)/n, limit)
			}
			s2.Stop()
		})
	}
}

// TestReplayContract pins what the rebuild callback is handed, on a heap
// with every verdict in it — blocks that survive, blocks a persisted
// retirement reclaims, blocks of the lost epoch, and deletions the crash
// rolls back — spread over several slabs so each scan worker judges some:
// records arrive in strictly ascending address order, one per recovered
// block, each with its header's tag, and exactly the resurrected blocks
// say so.
func TestReplayContract(t *testing.T) {
	const n = 4 * 1362 // four slabs of KV blocks
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withProcs(t, workers)
			h, s := newManual(t, 1<<17)
			w := s.Register()
			blocks := make([]Block, n)
			for i := range blocks {
				blocks[i] = putTagged(w, uint8(i%5), uint64(i), uint64(i))
			}
			retire := func(i int) {
				w.BeginOp()
				w.PRetire(blocks[i])
				w.EndOp()
			}
			for i := 0; i < n; i += 7 {
				retire(i) // a persisted deletion: reclaimed
			}
			s.Sync()
			resurrect := map[nvm.Addr]bool{}
			for i := 3; i < n; i += 11 {
				if i%7 != 0 {
					retire(i) // deleted in the lost epoch: rolled back
					resurrect[blocks[i].Addr()] = true
				}
			}
			for i := 0; i < 50; i++ {
				putKV(w, uint64(n+i), 0) // created in the lost epoch: reclaimed
			}
			s.SimulateCrash(nvm.CrashOptions{EvictFraction: 1})

			var recs []BlockRecord
			s2 := Recover(h, Config{Manual: true}, func(r BlockRecord) { recs = append(recs, r) })
			defer s2.Stop()
			if st := s2.Stats(); int64(len(recs)) != st.RecoveredLive || st.Resurrected != int64(len(resurrect)) {
				t.Fatalf("%d records; Stats says %d recovered, %d resurrected; want %d resurrected",
					len(recs), st.RecoveredLive, st.Resurrected, len(resurrect))
			}
			if want := n - (n+6)/7; len(recs) != want {
				t.Fatalf("%d records, want %d", len(recs), want)
			}
			if got := s2.Stats().RecoveryWorkers; got != workers {
				t.Fatalf("scan ran on %d workers, want %d", got, workers)
			}
			marked := 0
			for i, r := range recs {
				if i > 0 && r.Addr <= recs[i-1].Addr {
					t.Fatalf("record %d at %d after one at %d: not strictly ascending", i, r.Addr, recs[i-1].Addr)
				}
				if tag := s2.BlockAt(r.Addr).Tag(); r.Tag != tag {
					t.Fatalf("record at %d carries tag %d, its header %d", r.Addr, r.Tag, tag)
				}
				if r.Resurrected != resurrect[r.Addr] {
					t.Fatalf("record at %d: Resurrected = %v, want %v", r.Addr, r.Resurrected, resurrect[r.Addr])
				}
				if r.Resurrected {
					marked++
				}
			}
			if marked != len(resurrect) {
				t.Fatalf("%d records marked resurrected, want %d", marked, len(resurrect))
			}
		})
	}
}

// TestBlockRecordIsAValue: a record is 16 bytes of plain data, so a caller
// that keeps a heap's worth of them keeps nothing the collector must scan.
func TestBlockRecordIsAValue(t *testing.T) {
	if n := unsafe.Sizeof(BlockRecord{}); n != 16 {
		t.Fatalf("BlockRecord is %d bytes, want 16", n)
	}
	rt := reflect.TypeOf(BlockRecord{})
	for i := range rt.NumField() {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint64:
		default:
			t.Fatalf("BlockRecord.%s is a %s: a record holds no reference", f.Name, f.Type.Kind())
		}
	}
}
