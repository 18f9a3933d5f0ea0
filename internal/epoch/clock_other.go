//go:build !linux

package epoch

import "time"

// newClock arms the advancer's clock: without timerfd, a runtime timer.
func newClock(time.Duration) clock { return newTimerClock() }
