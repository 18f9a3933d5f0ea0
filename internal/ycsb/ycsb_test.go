package ycsb

import (
	"math"
	"testing"
)

func TestMixRatios(t *testing.T) {
	g := NewUniform(1000, Mix{ReadPct: 90}, 1)
	const n = 100000
	var reads, inserts, removes int
	for i := 0; i < n; i++ {
		op, _, _ := g.Next()
		switch op {
		case OpRead:
			reads++
		case OpInsert:
			inserts++
		case OpRemove:
			removes++
		}
	}
	if f := float64(reads) / n; math.Abs(f-0.9) > 0.02 {
		t.Fatalf("read fraction %.3f, want ~0.90", f)
	}
	// Writes split ~50/50 between inserts and removes.
	if d := math.Abs(float64(inserts-removes)) / float64(inserts+removes); d > 0.15 {
		t.Fatalf("insert/remove imbalance %.3f", d)
	}
}

func TestUniformCoversKeySpace(t *testing.T) {
	const n = 64
	g := NewUniform(n, WriteOnly, 7)
	seen := make(map[uint64]bool)
	for i := 0; i < 20000; i++ {
		_, k, _ := g.Next()
		if k >= n {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != n {
		t.Fatalf("uniform generator covered %d/%d keys", len(seen), n)
	}
}

func TestZipfianIsSkewed(t *testing.T) {
	const n = 1 << 16
	g := NewZipfian(n, 0.99, WriteOnly, 3)
	counts := make(map[uint64]int)
	const samples = 200000
	for i := 0; i < samples; i++ {
		_, k, _ := g.Next()
		if k >= n {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Under theta=0.99 the hottest key should take a few percent of all
	// accesses; under uniform it would take ~samples/n ≈ 3.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < samples/100 {
		t.Fatalf("hottest key only %d/%d samples; distribution not skewed", max, samples)
	}
	// And the working set should be noticeably smaller than the key
	// space (a uniform draw of 200k samples over 64k keys would touch
	// nearly all of them; Zipf 0.99 concentrates on roughly half).
	if len(counts) > n*3/4 {
		t.Fatalf("zipfian touched %d/%d keys; too uniform", len(counts), n)
	}
}

func TestZipfianSkewIncreasesWithTheta(t *testing.T) {
	const n = 1 << 14
	top := func(theta float64) int {
		g := NewZipfian(n, theta, WriteOnly, 5)
		counts := make(map[uint64]int)
		for i := 0; i < 100000; i++ {
			_, k, _ := g.Next()
			counts[k]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return max
	}
	if t9, t99 := top(0.9), top(0.99); t99 <= t9 {
		t.Fatalf("theta 0.99 hottest=%d not more skewed than theta 0.9 hottest=%d", t99, t9)
	}
}

// TestWorkloadTable sanity-checks every named workload's measured mix
// against its declared percentages.
func TestWorkloadTable(t *testing.T) {
	for name, mix := range Workloads {
		g := NewUniform(1<<10, mix, 23)
		const n = 50000
		var reads, inserts, removes int
		for i := 0; i < n; i++ {
			switch op, _, _ := g.Next(); op {
			case OpRead:
				reads++
			case OpInsert:
				inserts++
			case OpRemove:
				removes++
			}
		}
		if f := float64(reads) / n; math.Abs(f-float64(mix.ReadPct)/100) > 0.02 {
			t.Errorf("workload %s: read fraction %.3f, want ~%.2f", name, f, float64(mix.ReadPct)/100)
		}
		if mix.InsertOnly && removes != 0 {
			t.Errorf("workload %s: %d removes despite InsertOnly", name, removes)
		}
		// The parity split is only 50/50 when the write band has even
		// width (odd bands like B's 5% split 3:2 structurally).
		if band := 100 - mix.ReadPct; !mix.InsertOnly && band%2 == 0 && inserts+removes > 0 {
			if d := math.Abs(float64(inserts-removes)) / float64(inserts+removes); d > 0.15 {
				t.Errorf("workload %s: insert/remove imbalance %.3f", name, d)
			}
		}
	}
	for _, name := range []string{"E", "G"} {
		if _, ok := WorkloadMix(name); ok {
			t.Errorf("WorkloadMix accepted unknown workload %s", name)
		}
	}
}

// TestScanPctZeroStreamCompat pins every op stream to the two-draw
// generator that predates the scan band, which is gone again: each named
// workload (and a plain 20 % read mix) must consume exactly the RNG draws
// and yield exactly the ops of the reference below, so the A–D and F
// streams are byte-identical to the ones every earlier run drew.
func TestScanPctZeroStreamCompat(t *testing.T) {
	mixes := map[string]Mix{"20/80": {ReadPct: 20}}
	for name, mix := range Workloads {
		mixes[name] = mix
	}
	for name, mix := range mixes {
		g := NewUniform(1<<12, mix, 99)
		rng := splitMix{99 ^ 0x9e3779b97f4a7c15}
		for i := 0; i < 2000; i++ {
			r := rng.next()
			k := rng.next() % (1 << 12)
			v := k*2654435761 + 12345
			var wantOp OpKind
			var wantV uint64
			switch pct := int(r % 100); {
			case pct < mix.ReadPct:
				wantOp = OpRead
			case mix.InsertOnly || (pct-mix.ReadPct)%2 == 0:
				wantOp, wantV = OpInsert, v
			default:
				wantOp = OpRemove
			}
			op, gk, gv := g.Next()
			if op != wantOp || gk != k || gv != wantV {
				t.Fatalf("%s step %d: stream diverged (got %v/%d/%d want %v/%d/%d)", name, i, op, gk, gv, wantOp, k, wantV)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	g1 := NewZipfian(1<<12, 0.99, WriteHeavy, 42)
	g2 := NewZipfian(1<<12, 0.99, WriteHeavy, 42)
	for i := 0; i < 1000; i++ {
		op1, k1, v1 := g1.Next()
		op2, k2, v2 := g2.Next()
		if op1 != op2 || k1 != k2 || v1 != v2 {
			t.Fatalf("generators diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	g1 := NewUniform(1<<20, WriteOnly, 1)
	g2 := NewUniform(1<<20, WriteOnly, 2)
	same := 0
	for i := 0; i < 100; i++ {
		_, k1, _ := g1.Next()
		_, k2, _ := g2.Next()
		if k1 == k2 {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical keys", same)
	}
}

func TestPrefillKeys(t *testing.T) {
	keys := PrefillKeys(10)
	if len(keys) != 5 {
		t.Fatalf("PrefillKeys(10) returned %d keys", len(keys))
	}
	for _, k := range keys {
		if k%2 != 0 || k >= 10 {
			t.Fatalf("unexpected prefill key %d", k)
		}
	}
}

func TestZetaApproximationContinuity(t *testing.T) {
	// The integral tail approximation must agree with exact summation
	// near the threshold.
	exact := 0.0
	n := uint64(1<<20 + 1000)
	for i := uint64(1); i <= n; i++ {
		exact += 1.0 / math.Pow(float64(i), 0.99)
	}
	approx := zeta(n, 0.99)
	if rel := math.Abs(approx-exact) / exact; rel > 1e-3 {
		t.Fatalf("zeta approximation off by %.2e", rel)
	}
}

func TestUnscrambledZipfianHotKeyIsZero(t *testing.T) {
	z := NewZipfianDistUnscrambled(1<<12, 0.99)
	rng := splitMix{77}
	counts := make(map[uint64]int)
	for i := 0; i < 50000; i++ {
		counts[z.Sample(&rng)]++
	}
	max, argmax := 0, uint64(0)
	for k, c := range counts {
		if c > max {
			max, argmax = c, k
		}
	}
	if argmax != 0 {
		t.Fatalf("hottest unscrambled key = %d, want 0", argmax)
	}
}

func TestZipfianCacheReuse(t *testing.T) {
	a := cachedZipfian(1<<10, 0.99)
	b := cachedZipfian(1<<10, 0.99)
	if a != b {
		t.Fatal("cache returned distinct distributions for same parameters")
	}
	c := cachedZipfian(1<<10, 0.9)
	if a == c {
		t.Fatal("cache conflated different thetas")
	}
}
