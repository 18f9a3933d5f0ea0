package main

import (
	"math"
	"slices"
)

// median is the middle of xs, the mean of the two middle values for an even
// count; xs is not modified. Empty reports 0.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method (Python's statistics.quantiles(xs, n=4), the estimator the
// benchmark's gate uses): cut point k of 4 lies at position k(n+1)/4 of the
// sorted values, counted from 1, interpolated, clamped to the ends.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	at := func(k int) float64 {
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
	return at(1), at(3)
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// signTest is the two-sided exact sign test: the probability, if either
// side were as likely to win each of n untied pairs, of a split at least as
// uneven as wins of n.
func signTest(wins, n int) float64 {
	if n == 0 {
		return 1
	}
	k := min(wins, n-wins)
	var tail float64
	for i := 0; i <= k; i++ {
		tail += math.Exp(lchoose(n, i) - float64(n)*math.Ln2)
	}
	return min(1, 2*tail)
}

func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// Verdicts on one metric of one workload, judged the way the benchmark's
// gate judges a change against its parent.
const (
	verdictWorse      = "WORSE"      // the head's median is worse than the base's by more than the bound
	verdictUnresolved = "UNRESOLVED" // a side's quartile range exceeds the bound, and the sides overlap
	verdictBetter     = "BETTER"     // ten pairs or more, 9 in 10 of them better, by more than the base's quartile range
	verdictInBounds   = "IN-BOUNDS"  // none of these
)

// summary is one metric of one workload over all pairs.
type summary struct {
	Workload   string  `json:"workload"`
	Metric     string  `json:"metric"`
	Unit       string  `json:"unit"`
	Better     string  `json:"better"`
	Bound      float64 `json:"bound"`
	Pairs      int     `json:"pairs"`
	BaseMedian float64 `json:"base_median"`
	HeadMedian float64 `json:"head_median"`
	BaseQ1     float64 `json:"base_q1"`
	BaseQ3     float64 `json:"base_q3"`
	HeadQ1     float64 `json:"head_q1"`
	HeadQ3     float64 `json:"head_q3"`
	ChangePct  float64 `json:"change_pct"`
	Wins       int     `json:"head_wins"`
	Ties       int     `json:"ties"`
	SignP      float64 `json:"sign_p"`
	Verdict    string  `json:"verdict"`
}

// summarize judges paired samples of one metric: base[i] and head[i] came
// from the same pair. A win is a pair in which the head is better.
func summarize(m metricDef, base, head []float64) summary {
	s := summary{Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Pairs: len(base)}
	s.BaseMedian, s.HeadMedian = median(base), median(head)
	s.BaseQ1, s.BaseQ3 = quartiles(base)
	s.HeadQ1, s.HeadQ3 = quartiles(head)
	sign := 1.0 // positive: the head is better
	if m.Better != "higher" {
		sign = -1
	}
	for i := range base {
		switch d := sign * (head[i] - base[i]); {
		case d > 0:
			s.Wins++
		case d == 0:
			s.Ties++
		}
	}
	s.SignP = signTest(s.Wins, s.Pairs-s.Ties)
	if s.BaseMedian != 0 {
		s.ChangePct = 100 * (s.HeadMedian - s.BaseMedian) / math.Abs(s.BaseMedian)
	}
	gain := sign * (s.HeadMedian - s.BaseMedian)
	spread := func(q1, q3, med float64) float64 {
		if med == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(med)
	}
	// Every head run better than every base run settles a comparison
	// however wide either side spreads.
	allBetter := s.Pairs > 0 && slices.Max(head) < slices.Min(base)
	if m.Better == "higher" {
		allBetter = s.Pairs > 0 && slices.Min(head) > slices.Max(base)
	}
	switch {
	case s.BaseMedian != 0 && -gain/math.Abs(s.BaseMedian) > m.Bound:
		s.Verdict = verdictWorse
	case m.Name != "setup_s" && max(spread(s.BaseQ1, s.BaseQ3, s.BaseMedian), spread(s.HeadQ1, s.HeadQ3, s.HeadMedian)) > m.Bound && !allBetter:
		s.Verdict = verdictUnresolved
	case s.Pairs >= 10 && 10*s.Wins >= 9*s.Pairs && gain > s.BaseQ3-s.BaseQ1:
		s.Verdict = verdictBetter
	default:
		s.Verdict = verdictInBounds
	}
	return s
}
