//go:build !race

// Under the race detector sync.Pool drops a quarter of what it is handed
// (nvm's flush scratch lives in one), so this pin does not hold there; the
// race lane skips the file.

package epoch

import (
	"fmt"
	"testing"
)

// TestAdvanceReusesScratch pins the flusher's per-epoch scratch: once every
// buffer on the way — the workers' epoch ring, the task's per-shard address
// lists, the engine's extent batches, the merged batch handed to
// FlushExtents — has seen a full epoch, closing and flushing another one
// allocates a small constant, whatever the number of blocks it tracked and
// retired.
func TestAdvanceReusesScratch(t *testing.T) {
	for _, n := range []int{64, 8192} {
		t.Run(fmt.Sprintf("blocks=%d", n), func(t *testing.T) {
			_, s := newManual(t, 1<<20)
			w := s.Register()
			prev, cur := make([]Block, 0, n), make([]Block, 0, n)
			key := uint64(0)
			round := func() {
				for cur = cur[:0]; len(cur) < n; key++ {
					cur = append(cur, putKV(w, key, key))
				}
				w.BeginOp()
				for _, b := range prev {
					w.PRetire(b)
				}
				w.EndOp()
				prev, cur = cur, prev
				s.AdvanceOnce()
				s.FlushOnce()
			}
			for i := 0; i < 2*numSlots; i++ {
				round() // every slot of the workers' ring has held an epoch of this size
			}
			if got := testing.AllocsPerRun(16, round); got > 2 {
				t.Fatalf("an epoch of %d tracked + %d retired blocks cost %v allocs to track, close and flush, want <= 2", n, n, got)
			}
			if st := s.Stats(); st.FlushedBlocks < int64(16*n) || st.FreedBlocks < int64(16*n) {
				t.Fatalf("rounds did not flush and reclaim: %+v", st)
			}
		})
	}
}
