package main

import (
	"errors"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("median reordered its input: %v", c.xs)
			}
		}
	}
}

// TestQuartiles checks the exclusive method against Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.xs); !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		wins, n int
		want    float64
	}{
		{0, 0, 1},
		{5, 10, 1},
		{10, 10, 2.0 / 1024},
		{0, 10, 2.0 / 1024},
		{9, 10, 22.0 / 1024},
		{8, 10, 112.0 / 1024},
		{3, 4, 10.0 / 16},
	} {
		if got := signTest(c.wins, c.n); !near(got, c.want) {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.wins, c.n, got, c.want)
		}
	}
}

func TestSummarizeVerdicts(t *testing.T) {
	lower := metricDef{Name: "durable_p50_ms", Better: "lower", Bound: 0.2}
	base := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	shift := func(by float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * by
		}
		return out
	}
	for _, c := range []struct {
		head []float64
		want string
	}{
		{shift(0.9), verdictBetter},
		{shift(1.0), verdictInBounds},
		{shift(1.1), verdictInBounds},
		{shift(1.3), verdictWorse},
		{[]float64{1, 20, 1, 20, 1, 20, 1, 20, 1, 20}, verdictUnresolved},
		{[]float64{1, 5, 1, 5, 1, 5, 1, 5, 1, 5}, verdictBetter}, // wide, but below every base run
	} {
		if s := summarize(lower, base, c.head); s.Verdict != c.want {
			t.Errorf("head %v: verdict %s, want %s (%+v)", c.head, s.Verdict, c.want, s)
		}
	}
	if s := summarize(metricDef{Name: "ops", Better: "higher", Bound: 0.2}, base, shift(1.1)); s.Verdict != verdictBetter || s.Wins != 10 {
		t.Errorf("higher-is-better: verdict %s with %d wins, want %s with 10", s.Verdict, s.Wins, verdictBetter)
	}
	if s := summarize(lower, base[:9], shift(0.9)[:9]); s.Verdict != verdictInBounds {
		t.Errorf("9 pairs, all better: verdict %s, want %s (a gain needs ten pairs)", s.Verdict, verdictInBounds)
	}
}

// TestParseRunRejectsIncorrectRun pins that a run the benchmark itself
// rejects never reaches a verdict: its missing metric reads 0, which would
// win every lower-is-better pair.
func TestParseRunRejectsIncorrectRun(t *testing.T) {
	good := "embed_write durable_p50_ms 21.3 ms\n" +
		`{"correct":true,"attempted":1000,"failed":0,"metrics":{"durable_p50_ms":{"value":21.3,"unit":"ms"}}}` + "\n"
	r, err := parseRun([]byte(good), nil)
	if err != nil || r.Metrics["durable_p50_ms"].Value != 21.3 {
		t.Fatalf("correct run: %+v, %v", r, err)
	}
	exit1 := errors.New("exit status 1")
	for name, c := range map[string]struct {
		out  string
		exit error
	}{
		"failed ops":     {`{"correct":false,"attempted":1000,"failed":3,"metrics":{"durable_p50_ms":{"value":21.3}}}`, exit1},
		"metric missing": {`{"correct":false,"attempted":1000,"failed":0,"metrics":{"durable_p50_ms":{"value":0}}}`, exit1},
		"non-zero exit":  {good, exit1},
		"no JSON line":   {"bench: embed_write: boom\n", exit1},
	} {
		if _, err := parseRun([]byte(c.out), c.exit); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
