package obs

import (
	"math"
	"sync"
	"testing"
	"unsafe"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0}, {-5, 0}, // zero and clamped negatives
		{1, 1}, {3, 3}, {4, 4}, {7, 7}, {8, 8}, {9, 8}, {10, 9},
		{1023, 35}, {1024, 36},
		{1<<histTopBits - 1, HistBuckets - 2}, {1 << histTopBits, HistBuckets - 1},
		{math.MaxInt64, HistBuckets - 1},
	}
	for _, c := range cases {
		var h Hist
		h.Record(0, c.ns)
		s := h.Snapshot()
		if len(s.Buckets) != c.bucket+1 || s.Buckets[c.bucket] != 1 {
			t.Errorf("Record(%d): buckets %v, want single count in bucket %d", c.ns, s.Buckets, c.bucket)
		}
	}
	if BucketUpper(0) != 0 || BucketUpper(1) != 1 || BucketUpper(8) != 9 || BucketUpper(35) != 1023 {
		t.Errorf("BucketUpper low values wrong: %d %d %d %d",
			BucketUpper(0), BucketUpper(1), BucketUpper(8), BucketUpper(35))
	}
	if BucketUpper(HistBuckets-1) != math.MaxInt64 {
		t.Errorf("BucketUpper(top) = %d, want MaxInt64", BucketUpper(HistBuckets-1))
	}
	// The buckets tile the durations: each starts one past the last one's
	// upper edge, and both of its edges land in it.
	for b := 0; b < HistBuckets; b++ {
		low, _ := bucketSpan(b)
		if b > 0 && low != BucketUpper(b-1)+1 {
			t.Fatalf("bucket %d starts at %d, bucket %d ends at %d", b, low, b-1, BucketUpper(b-1))
		}
		if bucketOf(low) != b || bucketOf(BucketUpper(b)) != b {
			t.Fatalf("bucket %d [%d, %d]: edges land in %d and %d", b, low, BucketUpper(b), bucketOf(low), bucketOf(BucketUpper(b)))
		}
		if w := BucketUpper(b) - low + 1; b < HistBuckets-1 && w > max(low/histSub, 1) {
			t.Fatalf("bucket %d [%d, %d] is wider than a quarter of its low edge", b, low, BucketUpper(b))
		}
	}
}

// TestHistSize pins a Hist's memory: every Recorder holds 18 and every
// epoch system one. Log2 buckets took 18 KiB; the log-linear ones take 40.
func TestHistSize(t *testing.T) {
	if got := unsafe.Sizeof(Hist{}); got != 40<<10 {
		t.Fatalf("a Hist takes %d bytes, want 40 KiB (32 shards of 1280)", got)
	}
}

func TestHistExactStats(t *testing.T) {
	var h Hist
	values := []int64{0, 1, 5, 5, 100, 1000, -3}
	for i, v := range values {
		h.Record(uint64(i*31), v) // spread across shards
	}
	s := h.Snapshot()
	if s.Count != int64(len(values)) {
		t.Errorf("count = %d, want %d", s.Count, len(values))
	}
	if s.SumNS != 0+1+5+5+100+1000+0 {
		t.Errorf("sum = %d, want 1111", s.SumNS)
	}
	if s.MaxNS != 1000 {
		t.Errorf("max = %d, want 1000", s.MaxNS)
	}
	var rebuilt int64
	for _, c := range s.Buckets {
		rebuilt += c
	}
	if rebuilt != s.Count {
		t.Errorf("bucket total %d != count %d", rebuilt, s.Count)
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	// 90 fast ops of 5ns (a bucket of its own), 10 slow ops of exactly
	// 1000ns (bucket [896, 1023]).
	for i := 0; i < 90; i++ {
		h.Record(uint64(i), 5)
	}
	for i := 0; i < 10; i++ {
		h.Record(uint64(i), 1000)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.50); q != 5 {
		t.Errorf("p50 = %d, want 5 (the 5ns bucket is 1ns wide)", q)
	}
	if q := s.Quantile(0.99); q != 1000 {
		t.Errorf("p99 = %d, want 1000 (clamped to observed max)", q)
	}
	if q := s.Quantile(1.0); q != 1000 {
		t.Errorf("p100 = %d, want 1000", q)
	}
	if q := s.Quantile(0); q != 5 {
		t.Errorf("q=0 = %d, want 5 (the first occupied bucket's low edge)", q)
	}

	// The top bucket spans [2^40, MaxInt64]: interpolating in it would
	// overflow, so its ranks read the observed maximum.
	for _, huge := range []int64{1 << 45, math.MaxInt64} {
		var t2 Hist
		t2.Record(0, 5)
		t2.Record(1, huge)
		if q := t2.Snapshot().Quantile(1); q != huge {
			t.Errorf("p100 with one sample of %d ns = %d, want %d", huge, q, huge)
		}
	}

	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Errorf("empty snapshot quantile not 0")
	}
}

// TestHistQuantileInterpolates pins what the log-linear buckets are for:
// two latency distributions within one octave report different medians
// (log2 buckets put both at 2^20-1 ns).
func TestHistQuantileInterpolates(t *testing.T) {
	p50 := func(lo int64) int64 {
		var h Hist
		for i := int64(0); i < 1000; i++ {
			h.Record(uint64(i), lo+i*lo/1000) // uniform on [lo, 2lo)
		}
		return h.Snapshot().Quantile(0.5)
	}
	for _, lo := range []int64{540_000, 700_000} {
		if got, want := p50(lo), lo*3/2; got < want*97/100 || got > want*103/100 {
			t.Errorf("p50 of uniform [%d, %d) = %d, want %d ±3%%", lo, 2*lo, got, want)
		}
	}
}

func TestHistConcurrentCountExact(t *testing.T) {
	// The sharded histogram must not lose counts under contention: the
	// invariant "histogram count == op count" is what the deterministic
	// suite builds on.
	var h Hist
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(uint64(w), int64(i%1000))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}
