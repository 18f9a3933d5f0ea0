package epoch

import "time"

// clock is the advancer's wake-up source. wait blocks until the deadline
// has passed or the clock has another reason to wake (a timerfd
// expiration, which may belong to a deadline already taken), and returns
// false once close has been called. close may run concurrently with wait
// and is called once.
type clock interface {
	wait(deadline time.Time) bool
	close()
}

// advancer is the background advancer: one epoch transition per deadline
// of the grid start + k·EpochLength. Every wake re-reads the time and
// advances only when it finds a deadline not yet taken, so a wake that
// belongs to a deadline already taken is ignored, and after an advance
// that overran whole periods it advances once for the newest deadline
// passed instead of once for each — the grid drops missed deadlines, as
// a time.Ticker drops ticks, and never advances in a catch-up burst.
// c was armed at start.
func (s *System) advancer(c clock, start time.Time) {
	defer close(s.done)
	period := s.cfg.EpochLength
	var taken time.Duration // the newest deadline advanced, as k·period
	for c.wait(start.Add(taken + period)) {
		k := time.Since(start) / period * period
		if k <= taken {
			continue
		}
		taken = k
		s.AdvanceOnce()
	}
}

// timerClock waits on a runtime timer: the clock of platforms without
// timerfd, and of Linux when a timerfd cannot be had.
type timerClock struct {
	t    *time.Timer
	stop chan struct{}
}

func newTimerClock() *timerClock {
	return &timerClock{t: time.NewTimer(time.Hour), stop: make(chan struct{})}
}

func (c *timerClock) wait(deadline time.Time) bool {
	c.t.Reset(time.Until(deadline))
	select {
	case <-c.t.C:
		return true
	case <-c.stop:
		return false
	}
}

func (c *timerClock) close() { close(c.stop) }
