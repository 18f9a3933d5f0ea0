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

// TestFlushExtentsMatchesLineByLine: a shuffled batch of extents — with
// duplicates, extents sharing lines and lines no store dirtied — must
// flush exactly as flushing its distinct lines one at a time in ascending
// order does: the same image, the same dirty bits, the same persist-hook
// sequence and the same Stats deltas, except that the batch charges one
// media write per XPLine it writes back instead of one per line.
func TestFlushExtentsMatchesLineByLine(t *testing.T) {
	const words = 1 << 18
	type event struct {
		p PersistPoint
		a Addr
	}
	prepare := func() (*Heap, []Extent, *[]event) {
		h := New(Config{Words: words})
		x := uint64(7)
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x >> 11
		}
		for range words / 4 {
			h.Store(Addr(next()%words), next())
		}
		var exts []Extent
		for range 4096 {
			n := 1 + int(next()%24)
			exts = append(exts, Extent{Addr: Addr(next() % uint64(words-n)), Words: n})
		}
		exts = append(exts, exts[:512]...) // duplicates
		for i := len(exts) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			exts[i], exts[j] = exts[j], exts[i]
		}
		var evs []event
		h.SetPersistHook(func(p PersistPoint, a Addr) { evs = append(evs, event{p, a}) })
		return h, exts, &evs
	}

	batched, exts, batchedEvs := prepare()
	serial, _, serialEvs := prepare()
	covered := map[uint64]bool{}
	for _, ex := range exts {
		for l := ex.Addr.Line(); l <= (ex.Addr + Addr(ex.Words) - 1).Line(); l++ {
			covered[l] = true
		}
	}
	xplines := map[uint64]bool{}
	for l := range covered {
		if serial.DirtyLine(Addr(l * LineWords)) {
			xplines[l*LineWords/XPLineWords] = true
		}
	}

	b0, s0 := batched.Stats(), serial.Stats()
	batched.FlushExtents(exts)
	for l := uint64(0); l < words/LineWords; l++ {
		if covered[l] {
			serial.Flush(Addr(l * LineWords))
		}
	}
	bd, sd := batched.Stats().Sub(b0), serial.Stats().Sub(s0)

	for a := Addr(0); a < words; a++ {
		if b, s := batched.PersistedLoad(a), serial.PersistedLoad(a); b != s {
			t.Fatalf("image diverges at %d: batched %d, line by line %d", a, b, s)
		}
		if b, s := batched.DirtyLine(a), serial.DirtyLine(a); b != s {
			t.Fatalf("dirty bit of line %d diverges: batched %v, line by line %v", a.Line(), b, s)
		}
	}
	if len(*batchedEvs) != len(*serialEvs) {
		t.Fatalf("batched fired %d persist events, line by line %d", len(*batchedEvs), len(*serialEvs))
	}
	for i, e := range *batchedEvs {
		if e != (*serialEvs)[i] {
			t.Fatalf("persist event %d: batched %v, line by line %v", i, e, (*serialEvs)[i])
		}
	}
	if bd.Flushes != int64(len(covered)) || bd.Flushes != sd.Flushes ||
		bd.LineWritebacks != sd.LineWritebacks || bd.UsefulBytes != sd.UsefulBytes {
		t.Fatalf("batched %+v, line by line %+v, %d distinct lines", bd, sd, len(covered))
	}
	if bd.LineWritebacks == 0 || bd.LineWritebacks == bd.Flushes {
		t.Fatalf("%d write-backs of %d flushes: the batch should mix dirty and clean lines", bd.LineWritebacks, bd.Flushes)
	}
	if bd.MediaWrites != int64(len(xplines)) || bd.MediaBytes != bd.MediaWrites*XPLineBytes {
		t.Fatalf("batched media writes %d (%d bytes), want one per written-back XPLine: %d",
			bd.MediaWrites, bd.MediaBytes, len(xplines))
	}
}
