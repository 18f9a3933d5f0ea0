package epoch

import (
	"errors"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// fdClock is the advancer's clock on Linux. It waits on two signals and
// returns at the first:
//
//   - a periodic CLOCK_MONOTONIC timerfd, read through the runtime's
//     poller. The kernel makes it readable on time, so an idle process
//     wakes from epoll_wait when the epoch is due. A runtime timer alone
//     does not: the poller sleeps in whole milliseconds, rounded down
//     and at least one, so a 2 ms time.Ticker in an idle process fires
//     1.1 ms or 2.2 ms apart.
//   - the deadline itself, set as the file's read deadline: a runtime
//     timer, which a busy process runs on time from its scheduler, while
//     the poller — and with it the timerfd — may not be consulted for a
//     while.
//
// The timerfd's expirations are not counted: the advancer reads the time
// after every wake, so the expiration of a deadline the read deadline
// already took only costs one ignored wake.
type fdClock struct {
	f   *os.File
	buf [8]byte
}

// newClock arms the advancer's clock for a grid of period from now: a
// timerfd, or a runtime timer if the kernel will not give a pollable one
// (say, no file descriptor is left).
func newClock(period time.Duration) clock {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerClock()
	}
	ts := syscall.NsecToTimespec(int64(period))
	spec := [2]syscall.Timespec{ts, ts} // interval, first expiration
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return newTimerClock()
	}
	// A non-blocking descriptor makes a pollable File: Read parks on the
	// runtime's poller and honours the read deadline. A File the poller
	// did not take refuses deadlines, and its Read would block.
	f := os.NewFile(fd, "epoch-timerfd")
	if f.SetReadDeadline(time.Time{}) != nil {
		f.Close()
		return newTimerClock()
	}
	return &fdClock{f: f}
}

func (c *fdClock) wait(deadline time.Time) bool {
	if c.f.SetReadDeadline(deadline) != nil {
		return false // closed: newClock made sure the file takes deadlines
	}
	_, err := c.f.Read(c.buf[:])
	// Any other error is a wake too: the advancer re-reads the time, so
	// it still advances on the grid and never stops on its own.
	return !errors.Is(err, os.ErrClosed)
}

func (c *fdClock) close() { c.f.Close() }
