package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestHistogramError(t *testing.T) {
	// A bucket must be narrower than 1/16 octave: 2^(1/16)-1 = 4.4 %.
	limit := math.Pow(2, 1.0/16) - 1
	for _, v := range []uint64{1, 63, 64, 65, 127, 128, 1000, 1337, 1 << 20, 1<<20 + 12345, 3e9, 1 << 40} {
		low, width := histBounds(histIndex(v))
		if v < low || v >= low+width {
			t.Fatalf("value %d not inside its bucket [%d, %d)", v, low, low+width)
		}
		if rel := float64(width) / float64(max(low, 1)); low >= histSub && rel > limit {
			t.Fatalf("bucket of %d is %.4f of its value wide, limit %.4f", v, rel, limit)
		}
	}
	// Percentiles of a known distribution come back within the bucket error.
	var h hist
	for v := int64(1000); v < 101000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := 1000 + q*100000
		if got := h.quantile(q); math.Abs(got-want)/want > limit {
			t.Errorf("q%.3f = %.1f, want %.1f", q, got, want)
		}
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Error("empty histogram must report 0")
	}
}

func TestEstimators(t *testing.T) {
	// The segment median ignores a stalled segment that a mean would not.
	rates := []float64{500, 510, 490, 505, 100}
	if got := median(rates); got != 500 {
		t.Errorf("segment median = %v, want 500", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
	if got := quantileOf([]float64{10, 20, 30, 40, 50}, 0.25); got != 20 {
		t.Errorf("q25 = %v, want 20", got)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartile spread = %v, want %v", got, want)
	}
}

func TestPlanDeterminism(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a := newPlan(sp, 7, 0.01).streamHash(0, phaseMeasure, 4096)
		if b := newPlan(sp, 7, 0.01).streamHash(0, phaseMeasure, 4096); a != b {
			t.Errorf("%s: same seed, different op streams", sp.name)
		}
		if c := newPlan(sp, 8, 0.01).streamHash(0, phaseMeasure, 4096); a == c {
			t.Errorf("%s: seeds 7 and 8 give the same op stream", sp.name)
		}
		if d := newPlan(sp, 7, 0.01).streamHash(1, phaseMeasure, 4096); a == d {
			t.Errorf("%s: workers 0 and 1 share an op stream", sp.name)
		}
	}
	p := newPlan(&specs[0], 1, 0.01)
	seen := map[uint64]bool{}
	for i := uint64(0); i < p.live; i++ {
		k := p.liveKey(i)
		if k >= p.keyspace || seen[k] {
			t.Fatalf("live key %d (index %d) out of range or repeated", k, i)
		}
		seen[k] = true
		if !p.valueOK(k, p.value(k, 5)) || p.valueOK(k+1, p.value(k, 5)) {
			t.Fatalf("value tag of key %d does not bind the key", k)
		}
	}
}

func TestDrillVerifier(t *testing.T) {
	put := func(epoch, val uint64) drillOp { return drillOp{epoch: epoch, val: val} }
	del := func(epoch uint64) drillOp { return drillOp{epoch: epoch, del: true} }
	present := func(v uint64) kv { return kv{true, v} }
	h := &keyHist{base: present(1), ops: []drillOp{put(10, 2), put(11, 3), del(12)}}
	const watermark = 10
	for _, c := range []struct {
		name string
		got  kv
		ok   bool
	}{
		{"the durable value", present(2), true},
		{"a later value inside the window", present(3), true},
		{"a later delete inside the window", kv{}, true},
		{"the base value: the durable write was lost", present(1), false},
		{"a value nobody wrote", present(99), false},
	} {
		if h.legal(watermark, c.got) != c.ok {
			t.Errorf("%s: legal = %v, want %v", c.name, !c.ok, c.ok)
		}
	}
	// A key whose writes are all above the watermark keeps its base state;
	// one whose writes are all durable must not fall back to it.
	lost := &keyHist{base: kv{}, ops: []drillOp{put(11, 7)}}
	if !lost.legal(watermark, kv{}) || !lost.legal(watermark, present(7)) {
		t.Error("undurable write: both the base state and the write are legal")
	}
	kept := &keyHist{base: kv{}, ops: []drillOp{put(9, 7)}}
	if kept.legal(watermark, kv{}) {
		t.Error("a lost durable insert was accepted")
	}
}

// TestSmoke runs every workload, plain and traced, at 1/100 scale and holds
// the output to BENCHMARK.json: every metric named there printed exactly
// once per workload, finite, with its unit, and no failed op.
func TestSmoke(t *testing.T) {
	def, err := readBenchDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(def.Workloads), len(specs))
	}
	units := [2]map[string]string{{}, {}}
	for _, e := range def.EndToEnd {
		units[0][e.Name] = e.Unit
	}
	for _, e := range def.PerLayer {
		units[1][e.Name] = e.Unit
	}
	start := time.Now()
	for i, w := range def.Workloads {
		sp := findSpec(w.Name)
		if sp == nil || sp != &specs[i] {
			t.Fatalf("workload %q is not the program's workload %d", w.Name, i)
		}
		for trace, want := range units {
			rep, err := runWorkload(config{sp: sp, seed: 11, seconds: float64(def.RunSeconds), trace: trace == 1, scale: 0.01, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", sp.name, trace, err)
			}
			var out bytes.Buffer
			if !emit(&out, sp.name, rep, trace == 1) {
				t.Errorf("%s trace=%d: not correct: %d of %d failed: %s", sp.name, trace, rep.failed, rep.attempted, rep.note)
			}
			line, err := lastLine(out.Bytes())
			if err != nil {
				t.Fatalf("%s trace=%d: %v", sp.name, trace, err)
			}
			if line.Failed != 0 || line.Attempted < 1 || len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%d: attempted %d failed %d, %d metrics, want %d", sp.name, trace, line.Attempted, line.Failed, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := line.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want a finite value in %s", sp.name, trace, name, m, ok, unit)
				}
				printed := 0
				for _, l := range strings.Split(out.String(), "\n") {
					if f := strings.Fields(l); len(f) == 4 && f[0] == sp.name && f[1] == name && f[3] == unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s trace=%d: metric %s printed %d times", sp.name, trace, name, printed)
				}
				if trace == 0 && m.Value == 0 && !raceEnabled {
					t.Errorf("%s: end-to-end metric %s is 0", sp.name, name)
				}
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, want under 15 s", d)
	}
}
