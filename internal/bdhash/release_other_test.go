//go:build !linux || race

package bdhash

// watchRelease returns a probe that reports whether slots, Go memory here
// (nvm.MapWords), has been collected.
func watchRelease(slots []uint64) func() bool {
	done := closeOnCleanup(&slots[0])
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}
