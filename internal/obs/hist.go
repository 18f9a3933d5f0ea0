package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Hist buckets are log-linear: a value below histSub has a bucket of its
// own, and each octave [2^k, 2^(k+1)) above splits into histSub equal
// buckets, so a bucket is at most a quarter of its low edge wide. The top
// bucket absorbs everything from 2^histTopBits ns (about 18 minutes) up.
const (
	histSubBits = 2
	histSub     = 1 << histSubBits
	histTopBits = 40
	// HistBuckets is the number of buckets.
	HistBuckets = (histTopBits-histSubBits+1)*histSub + 1
)

// Hist is a lock-free sharded log-linear histogram of durations in
// nanoseconds: 32 shards of 1280 bytes, 40 KiB. The zero value is ready to
// use. Recording touches only atomics on the caller-chosen shard lane.
type Hist struct {
	shards [NumShards]histShard
}

type histShard struct {
	counts [HistBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	_      [1]int64
}

func bucketOf(ns int64) int {
	switch v := uint64(ns); {
	case v >= 1<<histTopBits:
		return HistBuckets - 1
	case v < histSub:
		return int(v)
	default:
		e := bits.Len64(v) - histSubBits - 1 // v>>e lies in [histSub, 2*histSub)
		return (e+1)*histSub + int(v>>e) - histSub
	}
}

// bucketSpan returns the lowest duration bucket b covers and its width.
func bucketSpan(b int) (low, width int64) {
	switch {
	case b < histSub:
		return int64(b), 1
	case b >= HistBuckets-1:
		return 1 << histTopBits, math.MaxInt64 - 1<<histTopBits + 1
	}
	e := b/histSub - 1
	return int64(b%histSub+histSub) << e, 1 << e
}

// BucketUpper returns the largest duration bucket b covers, its le edge.
func BucketUpper(b int) int64 {
	low, width := bucketSpan(b)
	return low + (width - 1)
}

// Record adds one duration (negative values clamp to 0).
func (h *Hist) Record(shard uint64, ns int64) {
	ns = max(ns, 0)
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
	for b, c := range counts {
		s.Count += c
		if c != 0 {
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

// Quantile returns the q-quantile (q in [0, 1]), interpolated linearly in
// the bucket that holds rank q·Count and clamped to the observed maximum;
// a rank in the top bucket, too wide to interpolate in, reads the maximum.
func (s HistSnapshot) Quantile(q float64) int64 {
	rank, cum := q*float64(s.Count), 0.0
	for b, c := range s.Buckets[:min(len(s.Buckets), HistBuckets-1)] {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			low, width := bucketSpan(b)
			return min(low+int64(float64(width)*(rank-cum)/float64(c)), s.MaxNS)
		}
		cum += float64(c)
	}
	return s.MaxNS
}
