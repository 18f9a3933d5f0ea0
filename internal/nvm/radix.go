package nvm

import "math/bits"

// radixMaxBits bounds the digit width of sortLines: 2^11 buckets, whose
// counters live in the pooled flush scratch rather than on the stack.
const radixMaxBits = 11

// insertionMax is the largest slice sortLines leaves to insertion sort.
const insertionMax = 16

// radixCounts holds one level's bucket cursors for sortLines: next is the
// first unplaced slot of each bucket, end the slot past it.
type radixCounts struct {
	next, end [1 << radixMaxBits]int32
}

// sortLines sorts a ascending: an in-place MSD radix sort (American flag
// sort) over the bits in which a's values differ, with the digit sized to
// the slice so that buckets average a few entries, finished by insertion
// sort. Line indices have a bounded number of digits, so the time is
// linear in len(a). It needs no second buffer — a batch of lines can be as
// large as a whole epoch's write-back — and duplicates, which FlushExtents
// drops afterwards, end the recursion once a bucket holds a single value.
func sortLines(a []uint64, rc *radixCounts) {
	if len(a) <= insertionMax {
		insertionSort(a)
		return
	}
	lo, hi := a[0], a[0]
	for _, v := range a[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	if lo == hi {
		return
	}
	span := bits.Len64(hi - lo)
	width := min(bits.Len(uint(len(a)))-2, radixMaxBits, span)
	shift := uint(span - width)
	nb := 1 << width
	next, end := rc.next[:nb], rc.end[:nb]
	clear(end)
	for _, v := range a {
		end[(v-lo)>>shift]++
	}
	off := int32(0)
	for d := range end {
		next[d] = off
		off += end[d]
		end[d] = off
	}
	// Cycle each misplaced value into the next free slot of its bucket.
	for d := range nb {
		for next[d] < end[d] {
			v := a[next[d]]
			k := int((v - lo) >> shift)
			for k != d {
				a[next[k]], v = v, a[next[k]]
				next[k]++
				k = int((v - lo) >> shift)
			}
			a[next[d]] = v
			next[d]++
		}
	}
	if shift == 0 {
		return // one value per bucket
	}
	// The buckets are now contiguous runs of equal digits; rc is reused by
	// the recursion, so find their bounds by scanning. Small buckets are
	// left to one insertion sort over the whole slice, which moves no value
	// out of its bucket.
	for i := 0; i < len(a); {
		d := (a[i] - lo) >> shift
		j := i + 1
		for j < len(a) && (a[j]-lo)>>shift == d {
			j++
		}
		if j-i > insertionMax {
			sortLines(a[i:j], rc)
		}
		i = j
	}
	insertionSort(a)
}

func insertionSort(a []uint64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for ; j > 0 && a[j-1] > v; j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
}
