package epoch

import (
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"bdhtm/internal/nvm"
)

// TestIdleEpochsCloseOnTime: an idle timer-mode system moves its durable
// watermark once per epoch length. A runtime timer alone does not: the
// poller an idle process sleeps in rounds its wait down to whole
// milliseconds, so a 2 ms ticker fires about half its gaps ≈ 1.1 ms apart
// and the rest ≈ 2.2 ms, and the median gap reads 1.1×. The median, not
// the spread, is what is pinned: on a shared host a wake from the kernel
// is itself now and then late by most of an epoch, which moves a few gaps
// in either direction and never the middle one.
func TestIdleEpochsCloseOnTime(t *testing.T) {
	const length = 2 * time.Millisecond
	const gaps = 151
	s := New(nvm.New(nvm.Config{Words: 1 << 16}), Config{EpochLength: length})
	defer s.Stop()
	ch := make(chan uint64, 1)
	defer s.SubscribeDurable(ch)()

	<-ch
	last := time.Now()
	d := make([]time.Duration, 0, gaps)
	for len(d) < gaps {
		<-ch
		now := time.Now()
		d = append(d, now.Sub(last))
		last = now
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	if p50 := d[gaps/2]; p50 < length*19/20 || p50 > length*21/20 {
		t.Fatalf("median watermark gap %v, want %v ± 5%%; p10 %v p90 %v",
			p50, length, d[gaps/10], d[gaps*9/10])
	}
}

// TestStopIsPrompt: Stop wakes an advancer that waits for a deadline an
// hour away.
func TestStopIsPrompt(t *testing.T) {
	s := New(nvm.New(nvm.Config{Words: 1 << 16}), Config{EpochLength: time.Hour})
	time.Sleep(time.Millisecond) // let the advancer start waiting
	t0 := time.Now()
	s.Stop()
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("Stop took %v", d)
	}
}

// TestNewStopLeaksNothing: a timer-mode system's clock and goroutines are
// gone once Stop returns.
func TestNewStopLeaksNothing(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	h := nvm.New(nvm.Config{Words: 1 << 16})
	fd0, g0 := fds(), runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		New(h, Config{EpochLength: 100 * time.Microsecond}).Stop()
	}
	// An exiting goroutine may still be counted for a moment after the
	// channel close that Stop waits on.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fd, g := fds(), runtime.NumGoroutine()
		if fd <= fd0 && g <= g0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 200 New/Stop: %d fds (was %d), %d goroutines (was %d)", fd, fd0, g, g0)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimerClock drives the runtime-timer clock, the only one where there
// is no timerfd: wait returns at its deadline, and false once closed.
func TestTimerClock(t *testing.T) {
	c := newTimerClock()
	d := time.Now().Add(time.Millisecond)
	if !c.wait(d) || time.Now().Before(d) {
		t.Fatal("wait returned before its deadline")
	}
	go func() {
		time.Sleep(time.Millisecond)
		c.close()
	}()
	if c.wait(time.Now().Add(time.Hour)) {
		t.Fatal("wait reported a deadline after close")
	}
}
