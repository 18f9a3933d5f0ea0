package nvm

import "sync/atomic"

// counterLanes is the number of lanes every counter is striped across.
const counterLanes = 32

// lane is one cache-line-padded counter stripe.
type lane struct {
	v atomic.Int64
	_ [7]int64 // keep neighbouring lanes off this cache line
}

// counter is a lock-free sharded event counter. Increments land on the
// caller-chosen lane; Load sums all lanes. The zero value is ready to
// use.
type counter struct {
	lanes [counterLanes]lane
}

// Add adds delta on the lane selected by shard (any value; only the low
// bits matter).
func (c *counter) Add(shard uint64, delta int64) {
	c.lanes[shard%counterLanes].v.Add(delta)
}

// Load returns the sum across all lanes. Concurrent with Add it is a
// best-effort (but never torn per-lane) total; quiescent it is exact.
func (c *counter) Load() int64 {
	var sum int64
	for i := range c.lanes {
		sum += c.lanes[i].v.Load()
	}
	return sum
}

// Stats holds the heap's internal event counters. Every counter is a
// sharded counter (cache-line-padded lanes, folded on snapshot) rather
// than one atomic word: loads and stores are the hottest operations in
// the whole simulator, and a single shared counter word serializes
// otherwise-independent goroutines on one cache line. Hot paths pass the
// accessed line index as the lane hint, so goroutines working disjoint
// data bump disjoint lanes; correctness never depends on the hint (Load
// sums all lanes).
type Stats struct {
	loads          counter
	stores         counter
	misses         counter
	flushes        counter
	fences         counter
	evictions      counter
	lineWritebacks counter
	mediaWrites    counter
	mediaBytes     counter
	usefulBytes    counter
	preImages      counter // a gauge: lines holding a pre-image now
}

// StatsSnapshot is a point-in-time copy of the heap counters.
type StatsSnapshot struct {
	Loads          int64 // word loads through the volatile view
	Stores         int64 // word stores (incl. CAS and Add)
	Misses         int64 // simulated cache misses
	Flushes        int64 // explicit line flushes (clwb)
	Fences         int64 // store fences (sfence)
	Evictions      int64 // capacity evictions of resident lines
	LineWritebacks int64 // 64-byte lines written back to the persistent media
	MediaWrites    int64 // 256-byte XPLine writes at the media
	MediaBytes     int64 // bytes written at the media (XPLine granularity)
	UsefulBytes    int64 // bytes of actual payload written back

	// Gauges, not counters (see the package doc). Sub keeps the later
	// snapshot's.
	ViewPages int64 // 32 KiB view pages stored to (faulted in)
	PreImages int64 // dirty lines holding a saved pre-image (not all zero)
}

// WriteAmplification is the ratio of media bytes written to useful payload
// bytes written back. 1.0 is ideal; Optane-style media makes small random
// write-back expensive (Sec. 5.1 of the paper). A heap that has written
// nothing back reports the ideal 1.0 rather than 0, which would read as
// sub-physical amplification and poison downstream ratios.
func (s StatsSnapshot) WriteAmplification() float64 {
	if s.UsefulBytes == 0 {
		return 1
	}
	return float64(s.MediaBytes) / float64(s.UsefulBytes)
}

// Sub returns the difference s - prev, for measuring an interval.
func (s StatsSnapshot) Sub(prev StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Loads:          s.Loads - prev.Loads,
		Stores:         s.Stores - prev.Stores,
		Misses:         s.Misses - prev.Misses,
		Flushes:        s.Flushes - prev.Flushes,
		Fences:         s.Fences - prev.Fences,
		Evictions:      s.Evictions - prev.Evictions,
		LineWritebacks: s.LineWritebacks - prev.LineWritebacks,
		MediaWrites:    s.MediaWrites - prev.MediaWrites,
		MediaBytes:     s.MediaBytes - prev.MediaBytes,
		UsefulBytes:    s.UsefulBytes - prev.UsefulBytes,
		ViewPages:      s.ViewPages,
		PreImages:      s.PreImages,
	}
}

// snapshot folds every counter's lanes into one total. Concurrent with
// accessors it is a best-effort (never torn per-lane) view; quiescent it
// is exact, which is what the deterministic-stats parity tests rely on.
func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Loads:          s.loads.Load(),
		Stores:         s.stores.Load(),
		Misses:         s.misses.Load(),
		Flushes:        s.flushes.Load(),
		Fences:         s.fences.Load(),
		Evictions:      s.evictions.Load(),
		LineWritebacks: s.lineWritebacks.Load(),
		MediaWrites:    s.mediaWrites.Load(),
		MediaBytes:     s.mediaBytes.Load(),
		UsefulBytes:    s.usefulBytes.Load(),
		PreImages:      s.preImages.Load(),
	}
}
