//go:build !linux || race

package nvm

// Here MapWords memory is ordinary Go memory: under the race detector,
// atomics on memory outside the Go heap are not synchronisation events,
// and other systems have no mapping call to rely on.
const mapped = false

// MapWords returns n zeroed words (see mapping_linux.go).
func MapWords(n int) []uint64 { return make([]uint64, n) }

// UnmapWords releases a MapWords mapping: here the collector does.
func UnmapWords([]uint64) {}

// Populate faults w's pages in: here the stores do.
func Populate([]uint64) {}

func discard(w []uint64) { clear(w) }
