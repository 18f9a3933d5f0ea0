package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the number of log-scale buckets: bucket b counts
// durations d (ns) with bits.Len64(d) == b, i.e. d in [2^(b-1), 2^b).
// Bucket 0 counts exact zeros; the top bucket absorbs everything from
// ~4.6 seconds up.
const HistBuckets = 64

// Hist is a lock-free sharded log-scale histogram of durations in
// nanoseconds. The zero value is ready to use. Recording touches only
// atomics on the caller-chosen shard lane.
type Hist struct {
	shards [NumShards]histShard
}

type histShard struct {
	counts [HistBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	_      [6]int64
}

func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b > HistBuckets-1 {
		b = HistBuckets - 1
	}
	return b
}

// BucketUpper returns the largest duration bucket b covers (its value
// for quantile reporting). Bucket 0 is exactly 0.
func BucketUpper(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return math.MaxInt64
	}
	return int64(uint64(1)<<uint(b)) - 1
}

// Record adds one duration (negative values clamp to 0).
func (h *Hist) Record(shard uint64, ns int64) {
	if ns < 0 {
		ns = 0
	}
	s := &h.shards[shard&shardMask]
	s.counts[bucketOf(ns)].Add(1)
	s.sum.Add(ns)
	for {
		cur := s.max.Load()
		if ns <= cur || s.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Snapshot merges all shards into one immutable view.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	var counts [HistBuckets]int64
	for i := range h.shards {
		sh := &h.shards[i]
		for b := 0; b < HistBuckets; b++ {
			counts[b] += sh.counts[b].Load()
		}
		s.SumNS += sh.sum.Load()
		if m := sh.max.Load(); m > s.MaxNS {
			s.MaxNS = m
		}
	}
	top := 0
	for b := 0; b < HistBuckets; b++ {
		s.Count += counts[b]
		if counts[b] != 0 {
			top = b + 1
		}
	}
	s.Buckets = append([]int64(nil), counts[:top]...)
	return s
}

// HistSnapshot is a merged, immutable histogram state. Buckets is
// trimmed of trailing zeros (its length is the highest occupied bucket
// plus one).
type HistSnapshot struct {
	Count   int64
	SumNS   int64
	MaxNS   int64
	Buckets []int64
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]):
// the upper edge of the bucket holding the rank-⌈q·Count⌉ sample,
// clamped to the exact observed maximum. Deterministic for a given set
// of recorded values.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for b, c := range s.Buckets {
		cum += c
		if cum >= rank {
			up := BucketUpper(b)
			if up > s.MaxNS {
				up = s.MaxNS
			}
			return up
		}
	}
	return s.MaxNS
}
