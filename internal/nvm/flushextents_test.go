package nvm

import (
	"sync"
	"testing"
)

// TestFlushExtentsMediaAtLeastUseful pins the documented accounting
// invariant media_bytes >= useful_bytes while several callers race batched
// flushes over overlapping regions — the case where one XPLine's media
// charge may be counted once per caller. This test is
// part of the race lane; the raciness is the point.
func TestFlushExtentsMediaAtLeastUseful(t *testing.T) {
	const words = 1 << 14
	const goroutines = 4
	const rounds = 500
	h := New(Config{Words: words})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			exts := make([]Extent, 16)
			x := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < rounds; i++ {
				for e := range exts {
					x = x*6364136223846793005 + 1442695040888963407
					// All goroutines draw from the same word range, so
					// racing flushes share cache lines and XPLines.
					a := Addr(x % (words - 8))
					h.Store(a, x)
					exts[e] = Extent{Addr: a, Words: 4}
				}
				h.FlushExtents(exts)
			}
		}(w)
	}
	wg.Wait()
	st := h.Stats()
	if st.UsefulBytes == 0 {
		t.Fatal("no write-backs recorded; test exercised nothing")
	}
	if st.MediaBytes < st.UsefulBytes {
		t.Fatalf("media bytes %d < useful bytes %d under racing flushes", st.MediaBytes, st.UsefulBytes)
	}
	if wa := st.WriteAmplification(); wa < 1 {
		t.Fatalf("write amplification %f < 1", wa)
	}
}

// TestFlushExtentsMatchesSerialImage is the golden equivalence check:
// batch-flushing a set of (overlapping, unsorted) extents must yield a
// persistent image identical to flushing the same extents one at a time
// with FlushRange, byte for byte. The batched path may reorder and
// coalesce for accounting, but what reaches the media cannot differ.
func TestFlushExtentsMatchesSerialImage(t *testing.T) {
	const words = 1 << 12
	prepare := func() (*Heap, []Extent) {
		h := New(Config{Words: words})
		x := uint64(42)
		for a := Addr(0); a < words; a++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.Store(a, x)
		}
		// Unsorted extents with deliberate line sharing and overlap.
		exts := []Extent{
			{Addr: 512, Words: 40},
			{Addr: 8, Words: 4},
			{Addr: 12, Words: 4}, // shares a line with the previous extent
			{Addr: 1024, Words: 1},
			{Addr: 520, Words: 16}, // inside the first extent
			{Addr: 96, Words: 64},
			{Addr: 3000, Words: 7},
		}
		return h, exts
	}

	batched, exts := prepare()
	batched.FlushExtents(exts)

	serial, exts2 := prepare()
	for _, ex := range exts2 {
		serial.FlushRange(ex.Addr, ex.Words)
	}

	for a := Addr(0); a < words; a++ {
		if b, s := batched.PersistedLoad(a), serial.PersistedLoad(a); b != s {
			t.Fatalf("persistent image diverges at %d: batched %d, serial %d", a, b, s)
		}
	}
	// Dirty write-back work must also agree: the same lines were made
	// durable either way.
	bs, ss := batched.Stats(), serial.Stats()
	if bs.LineWritebacks != ss.LineWritebacks || bs.UsefulBytes != ss.UsefulBytes {
		t.Fatalf("write-back accounting diverges: batched %d lines/%d useful, serial %d lines/%d useful",
			bs.LineWritebacks, bs.UsefulBytes, ss.LineWritebacks, ss.UsefulBytes)
	}
}
