package nvm

import (
	"slices"
	"testing"
)

// TestSortLinesMatchesSort: sortLines orders any batch as slices.Sort
// does — scattered, clustered, all equal, runs of duplicates, spans up to
// the full 64 bits — with one radixCounts reused across calls.
func TestSortLinesMatchesSort(t *testing.T) {
	x := uint64(3)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	var rc radixCounts
	for _, n := range []int{0, 1, 2, 16, 17, 100, 5000, 70000} {
		for _, shape := range []struct {
			name string
			draw func(i int) uint64
		}{
			{"scattered", func(int) uint64 { return next() >> 44 }},
			{"clustered", func(int) uint64 { return 1<<19 + next()>>58 }},
			{"equal", func(int) uint64 { return 42 }},
			{"runs", func(i int) uint64 { return uint64(i / 3 * 7) }},
			{"wide", func(int) uint64 { return next() }},
		} {
			a := make([]uint64, n)
			for i := range a {
				a[i] = shape.draw(i)
			}
			want := slices.Clone(a)
			slices.Sort(want)
			sortLines(a, &rc)
			if !slices.Equal(a, want) {
				t.Fatalf("%s, %d values: sortLines disagrees with slices.Sort", shape.name, n)
			}
		}
	}
}
