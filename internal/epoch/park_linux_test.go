package epoch

import (
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"bdhtm/internal/nvm"
)

// cpuTime is the CPU time the process has used so far.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// idleFor reports the CPU time the process spends over window.
func idleFor(t *testing.T, window time.Duration) time.Duration {
	c0 := cpuTime(t)
	time.Sleep(window)
	return cpuTime(t) - c0
}

// A waiting goroutine that kept its thread spinning would burn most of
// the window (a whole CPU, or a good share of one on a loaded host); one
// that parks burns next to nothing.
const (
	parkWindow = 200 * time.Millisecond
	parkBudget = 40 * time.Millisecond
)

// TestQuiesceWaitParks: a flush waiting for an operation still open in the
// closed epoch parks instead of spinning, and finishes once the operation
// ends.
func TestQuiesceWaitParks(t *testing.T) {
	s := New(nvm.New(nvm.Config{Words: 1 << 16}), Config{EpochLength: time.Hour})
	defer s.Stop()
	w := s.Register()
	e := w.BeginOp()
	s.AdvanceOnce()                   // closes e and hands it to the flusher, which waits for w
	time.Sleep(20 * time.Millisecond) // past the spin
	cpu := idleFor(t, parkWindow)
	persisted := s.PersistedEpoch()
	w.EndOp()
	if cpu > parkBudget {
		t.Errorf("waiting for the operation used %v of CPU in %v, want ≤ %v", cpu, parkWindow, parkBudget)
	}
	if persisted >= e {
		t.Fatalf("epoch %d persisted with an operation still open in it", e)
	}
	for deadline := time.Now().Add(5 * time.Second); s.PersistedEpoch() < e; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("persisted %d after the operation ended, want %d", s.PersistedEpoch(), e)
		}
	}
}

// TestEarlyPassWaitParks: a worker held for an early pass by a lagging
// flusher parks instead of spinning (the set-up of
// TestWorkerWaitsForLaggingFlusher).
func TestEarlyPassWaitParks(t *testing.T) {
	const at = 4
	s := New(nvm.New(nvm.Config{Words: 1 << 16}), Config{EpochLength: time.Hour})
	defer s.Stop()
	w := s.Register()
	s.earlyAt.Store(at)
	s.taskMu.Lock() // the flusher's next pass waits for this
	var ended atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := uint64(0); k < 2*at; k++ {
			putKV(w, k, k)
			ended.Add(1)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ended.Load() < 2*at-1 {
		if time.Now().After(deadline) {
			t.Fatal("the worker never reached its wait")
		}
		time.Sleep(time.Millisecond)
	}
	cpu := idleFor(t, parkWindow)
	s.taskMu.Unlock()
	<-done
	if cpu > parkBudget {
		t.Errorf("waiting for the pass used %v of CPU in %v, want ≤ %v", cpu, parkWindow, parkBudget)
	}
}
