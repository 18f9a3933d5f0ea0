package htm

import (
	"testing"
	"unsafe"
)

// alignedLines returns n whole cache lines starting on a line boundary, so
// word i lies on line i/8.
func alignedLines(n int) []uint64 {
	buf := make([]uint64, (n+1)*8)
	off := (64 - int(uintptr(unsafe.Pointer(&buf[0]))%64)) % 64 / 8
	return buf[off : off+n*8]
}

// attemptAtRV is one transaction attempt whose read version is rv instead
// of the clock at its start. With rv past every version the rv check never
// fires, which isolates the read set's own version compare.
func attemptAtRV(tm *TM, rv uint64, body func(tx *Tx)) Result {
	tx := tm.pool.Get().(*Tx)
	defer tm.pool.Put(tx)
	tx.reset(tm.txIDs.Add(1)<<1|1, rv)
	if res, ok := tm.runBody(tx, body); !ok {
		return res
	}
	if tx.commit() {
		return Result{Committed: true}
	}
	return Result{Cause: CauseConflict}
}

// TestSameLineReadSeesInterveningCommit: a read of a line this attempt
// recorded last skips the read set only if it sees the recorded version.
// Reading word A of a line, letting another transaction commit a write to
// the line, then reading word B must abort with CauseConflict, both in a
// plain attempt (where the rv check also catches it) and in one whose rv
// cannot (where only the version compare does).
func TestSameLineReadSeesInterveningCommit(t *testing.T) {
	for _, tc := range []struct {
		name    string
		attempt func(tm *TM, body func(tx *Tx)) Result
	}{
		{"attempt", func(tm *TM, body func(tx *Tx)) Result { return tm.Attempt(body) }},
		{"rv past every version", func(tm *TM, body func(tx *Tx)) Result {
			return attemptAtRV(tm, 1<<62, body)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tm := Default()
			line := alignedLines(1)
			res := tc.attempt(tm, func(tx *Tx) {
				tx.Load(&line[0])
				if r := tm.Attempt(func(tx *Tx) { tx.Store(&line[7], 1) }); !r.Committed {
					t.Fatalf("intervening writer aborted: %v", r.Cause)
				}
				tx.Load(&line[1])
			})
			if res.Cause != CauseConflict {
				t.Fatalf("got %+v, want CauseConflict", res)
			}
		})
	}
}

// TestReadSetCountsLinesOnce: a read-only attempt over all 32 words of 4
// lines records 4 read lines, in line order and interleaved, so it commits
// under MaxReadLines 4 and aborts with CauseCapacity under 3.
func TestReadSetCountsLinesOnce(t *testing.T) {
	const lines = 4
	region := alignedLines(lines)
	orders := map[string]func(i int) int{
		"line order":  func(i int) int { return i },
		"interleaved": func(i int) int { return i%lines*8 + i/lines },
	}
	for name, word := range orders {
		for _, limit := range []int{lines, lines - 1} {
			tm := New(Config{MaxReadLines: limit})
			recorded := 0
			res := tm.Attempt(func(tx *Tx) {
				for i := range len(region) {
					tx.Load(&region[word(i)])
				}
				recorded = tx.reads.len()
			})
			if limit == lines && (!res.Committed || recorded != lines) {
				t.Errorf("%s, MaxReadLines %d: %+v with %d read lines, want a commit with %d", name, limit, res, recorded, lines)
			}
			if limit < lines && res.Cause != CauseCapacity {
				t.Errorf("%s, MaxReadLines %d: %+v, want CauseCapacity", name, limit, res)
			}
		}
	}
}
