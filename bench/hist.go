package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of non-negative integer samples
// (nanoseconds here): 64 buckets per octave, so a bucket is at most 1/64 of
// its value wide, and quantiles interpolate inside the bucket. It is owned
// by one goroutine; merge combines per-goroutine histograms afterwards.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1 // v>>e lies in [histSub, 2*histSub)
	return (e+1)*histSub + int(v>>e) - histSub
}

// histBounds returns the lowest value of bucket i and the bucket's width.
func histBounds(i int) (low, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	e := i/histSub - 1
	return uint64(i%histSub+histSub) << e, 1 << e
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(uint64(v))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 ≤ q ≤ 1), interpolated linearly inside
// the bucket that holds it. An empty histogram reports 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			low, width := histBounds(i)
			return float64(low) + float64(width)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	low, width := histBounds(histBuckets - 1)
	return float64(low + width)
}

// median of a slice; the slice is not modified. Empty reports 0.
func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantileOf is the q-quantile of xs with linear interpolation between
// order statistics.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (the exclusive method) — the estimator the driver gates on.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		switch {
		case lo < 0:
			return s[0]
		case lo >= n-1:
			return s[n-1]
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(at(3)-at(1)) / math.Abs(m)
}
