package obs

import "sync/atomic"

// lane is one cache-line-padded counter stripe.
type lane struct {
	v atomic.Int64
	_ [7]int64 // keep neighbouring lanes off this cache line
}

// Counter is a lock-free sharded event counter. Increments land on the
// caller-chosen lane; Load sums all lanes. The zero value is ready to
// use.
type Counter struct {
	lanes [NumShards]lane
}

// Add adds delta on the lane selected by shard (any value; only the low
// bits matter).
func (c *Counter) Add(shard uint64, delta int64) {
	c.lanes[shard&shardMask].v.Add(delta)
}

// Load returns the sum across all lanes. Concurrent with Add it is a
// best-effort (but never torn per-lane) total; quiescent it is exact.
func (c *Counter) Load() int64 {
	var sum int64
	for i := range c.lanes {
		sum += c.lanes[i].v.Load()
	}
	return sum
}
