package palloc

import (
	"slices"
	"sync"

	"bdhtm/internal/nvm"
)

// Sharded free-list magazines.
//
// At high thread counts the single al.mu serializes every Alloc/Free —
// exactly the "memory management for KV pairs" cost the paper moves off
// the critical path (Sec. 4.1). SetShards interposes per-shard magazine
// caches keyed by the epoch system's flusher shard (worker ID & mask):
// allocations pop from a shard-local stack and only take the global lock
// once per batch to refill, and frees push shard-locally with batched
// spill-back, so parallel reclaim during an epoch advance no longer
// funnels through one mutex.
//
// Slab formatting stays under al.mu with its flush inside formatSlab:
// recovery's scan stops at the first non-magic slab header ("formatting
// is sequential"), so slab magics must become durable in address order —
// a constraint a sharded formatter would silently break after a crash
// mid-format.

// maxShards caps the magazine count; it matches obs.NumShards so a shard
// index is also an exact obs counter lane.
const maxShards = 32

// magazine is one shard's block cache: per-class free stacks under a
// private mutex, padded so neighbouring shards don't false-share.
type magazine struct {
	mu   sync.Mutex
	free [][]nvm.Addr
	_    [64]byte
}

// magBatch is the refill/spill granularity for a class, scaled so a
// batch moves roughly 1 KiB-of-words regardless of block size.
func magBatch(class int) int {
	b := 1024 / classWords[class]
	if b > 64 {
		b = 64
	}
	if b < 4 {
		b = 4
	}
	return b
}

// SetShards configures n magazine shards (rounded down to a power of
// two, clamped to [1, 32]; 1 disables sharding and restores the plain
// global-lock path). Call before the allocator is shared between
// goroutines; existing magazines are discarded, so any cached blocks
// must already be back in the global pool (i.e. call it once, up front).
func (al *Allocator) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	for n&(n-1) != 0 {
		n &= n - 1
	}
	if n == 1 {
		al.nShards = 1
		al.mags = nil
		return
	}
	al.nShards = n
	al.mags = make([]*magazine, n)
	for i := range al.mags {
		al.mags[i] = &magazine{free: make([][]nvm.Addr, len(classWords))}
	}
}

// Shards returns the configured magazine shard count (>= 1).
func (al *Allocator) Shards() int {
	if al.nShards < 1 {
		return 1
	}
	return al.nShards
}

// takeMagazine pops a block from the shard's magazine, refilling a whole
// batch from the global pool when it runs dry — reversed, so the magazine
// hands the batch out in the order the pool would have. Lock order is
// magazine.mu then al.mu, same as putMagazine's spill.
func (al *Allocator) takeMagazine(class, shard int) nvm.Addr {
	m := al.mags[shard&(al.nShards-1)]
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.free[class]) == 0 {
		batch := magBatch(class)
		al.mu.Lock()
		for i := 0; i < batch; i++ {
			m.free[class] = append(m.free[class], al.takeLocked(class))
		}
		al.mu.Unlock()
		slices.Reverse(m.free[class])
	}
	n := len(m.free[class])
	b := m.free[class][n-1]
	m.free[class] = m.free[class][:n-1]
	return b
}

// putMagazine pushes a freed block onto the shard's magazine, spilling a
// batch back to the global pool when the magazine overfills so one
// shard's churn cannot strand blocks other shards need.
func (al *Allocator) putMagazine(class int, b nvm.Addr, shard int) {
	m := al.mags[shard&(al.nShards-1)]
	m.mu.Lock()
	m.free[class] = append(m.free[class], b)
	if batch := magBatch(class); len(m.free[class]) > 2*batch {
		n := len(m.free[class])
		al.mu.Lock()
		al.free[class] = append(al.free[class], m.free[class][n-batch:]...)
		al.mu.Unlock()
		m.free[class] = m.free[class][:n-batch]
	}
	m.mu.Unlock()
}
