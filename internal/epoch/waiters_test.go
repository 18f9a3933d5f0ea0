//go:build !race

// The race detector randomizes which runnable goroutine the scheduler takes
// next, which is the order this test pins; the race lane skips the file.

package epoch

import (
	"runtime"
	"testing"
	"time"

	"bdhtm/internal/nvm"
)

// TestWaitersRunBeforeReclamation: a subscriber the watermark woke runs
// before the task that woke it reclaims the epoch's retired blocks. On one
// processor the woken goroutine queues behind the flusher, so it reads
// FreedBlocks without the task's retirements only if the flusher yields
// first. The scheduler takes its global queue ahead of the woken goroutine
// once in 61 schedules, so the order is required in most rounds, not all.
func TestWaitersRunBeforeReclamation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, rounds = 64, 8
	h := nvm.New(nvm.Config{Words: 1 << 18})
	s := New(h, Config{EpochLength: time.Hour}) // the test owns every advance
	defer s.Stop()
	w := s.Register()
	first := 0
	for r := 0; r < rounds; r++ {
		blocks := make([]Block, n)
		for i := range blocks {
			blocks[i] = putKV(w, uint64(r*n+i), 1)
		}
		s.Sync()
		retireAll(w, blocks)
		before := s.Stats().FreedBlocks

		wake := make(chan uint64, 1)
		cancel := s.SubscribeDurable(wake)
		seen := make(chan int64)
		go func() {
			<-wake
			seen <- s.Stats().FreedBlocks
		}()
		s.AdvanceOnce() // the flusher goroutine runs the task
		if <-seen == before {
			first++
		}
		cancel()
	}
	s.Sync()
	if st := s.Stats(); st.FreedBlocks != n*rounds {
		t.Fatalf("freed %d blocks, want all %d retired", st.FreedBlocks, n*rounds)
	}
	if first < rounds/2 {
		t.Fatalf("the woken subscriber ran before the reclamation in %d of %d rounds, want most", first, rounds)
	}
}
