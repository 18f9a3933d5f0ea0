package obs

import (
	"math"
	"sync"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0}, {-5, 0}, // zero and clamped negatives
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		var h Hist
		h.Record(0, c.ns)
		s := h.Snapshot()
		if len(s.Buckets) != c.bucket+1 || s.Buckets[c.bucket] != 1 {
			t.Errorf("Record(%d): buckets %v, want single count in bucket %d", c.ns, s.Buckets, c.bucket)
		}
	}
	if BucketUpper(0) != 0 || BucketUpper(1) != 1 || BucketUpper(3) != 7 || BucketUpper(10) != 1023 {
		t.Errorf("BucketUpper low values wrong: %d %d %d %d",
			BucketUpper(0), BucketUpper(1), BucketUpper(3), BucketUpper(10))
	}
	if BucketUpper(63) != math.MaxInt64 {
		t.Errorf("BucketUpper(63) = %d, want MaxInt64", BucketUpper(63))
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
	// 90 fast ops (bucket upper 7), 10 slow ops of exactly 1000ns.
	for i := 0; i < 90; i++ {
		h.Record(uint64(i), 5)
	}
	for i := 0; i < 10; i++ {
		h.Record(uint64(i), 1000)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.50); q != 7 {
		t.Errorf("p50 = %d, want 7 (upper edge of bucket for 5ns)", q)
	}
	if q := s.Quantile(0.99); q != 1000 {
		t.Errorf("p99 = %d, want 1000 (clamped to observed max)", q)
	}
	if q := s.Quantile(1.0); q != 1000 {
		t.Errorf("p100 = %d, want 1000", q)
	}
	if q := s.Quantile(0); q != 7 {
		t.Errorf("q=0 = %d, want first bucket's upper (rank clamps to 1)", q)
	}

	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Errorf("empty snapshot quantile not 0")
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
