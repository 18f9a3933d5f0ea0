package nvm

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkHotPath measures the substrate cost every simulated structure
// pays on every memory access: Heap.Load and Heap.Store on the cache-hit
// fast path, across goroutine counts. This is the denominator of every
// figure in the paper — if the simulation bookkeeping serializes, thread
// sweeps measure the bookkeeping, not the algorithms. CI runs it with
// -benchtime=100x as a compile-and-run smoke; EXPERIMENTS.md records
// full-length before/after numbers.
func BenchmarkHotPath(b *testing.B) {
	const words = 1 << 16
	for _, op := range []string{"load", "store"} {
		store := op == "store"
		for _, g := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", op, g), func(b *testing.B) {
				h := New(Config{Words: words})
				// Touch every line once so the measured loop runs on the
				// residency hit path, as a warmed-up structure would.
				for a := Addr(0); a < words; a += LineWords {
					h.Store(a, 1)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N/g + 1
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						x := uint64(w)*0x9e3779b97f4a7c15 + 1
						for i := 0; i < per; i++ {
							x = x*6364136223846793005 + 1442695040888963407
							a := Addr(x % words)
							if store {
								h.Store(a, x)
							} else {
								h.Load(a)
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
	b.Run("store-clean/goroutines=1", benchStoreClean)
	for _, g := range []int{1, 4} {
		b.Run(fmt.Sprintf("flushextents/goroutines=%d", g), func(b *testing.B) {
			benchFlushExtents(b, g)
		})
	}
	b.Run("flushextents/close", benchCloseBatch)
}

// benchStoreClean times the store that dirties a clean line holding data,
// the one that saves the line's pre-image: each op flushes a line and then
// stores to it, so it is the store cell's cost plus one flush plus one
// pre-image saved and dropped.
func benchStoreClean(b *testing.B) {
	const words = 1 << 16
	h := New(Config{Words: words})
	for a := Addr(0); a < words; a++ {
		h.Store(a, uint64(a)|1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	x := uint64(1)
	for range b.N {
		x = x*6364136223846793005 + 1442695040888963407
		a := Addr(x % words)
		h.Flush(a)
		h.Store(a, x|1)
	}
}

// benchCloseBatch times one epoch close's write-back shaped like
// embed_hot's: about 5,000 tracked 3-word blocks, 2,700 of them distinct,
// scattered over a 6 Mi-word heap, each dirtied and then flushed as one
// FlushExtents batch. It reports ns per distinct line flushed.
func benchCloseBatch(b *testing.B) {
	const (
		words    = 6 << 20
		slab     = 4096
		distinct = 2700
		tracked  = 5000
	)
	h := New(Config{Words: words})
	x := uint64(0x5eed)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 11
	}
	// Blocks sit where palloc packs KV blocks: from a slab's second line
	// on, 3 words apart, so some straddle two lines.
	blocks := make([]Addr, distinct)
	for i := range blocks {
		blocks[i] = Addr(next()%(words/slab)*slab + LineWords + next()%1362*3)
	}
	exts := make([]Extent, tracked)
	lines := map[uint64]bool{}
	for i := range exts {
		blk := blocks[next()%distinct]
		exts[i] = Extent{Addr: blk, Words: 3}
		lines[blk.Line()], lines[(blk+2).Line()] = true, true
	}
	for _, ex := range exts {
		h.Store(ex.Addr, 1)
	}
	h.FlushExtents(exts) // materialises the image pages
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		for _, ex := range exts {
			h.Store(ex.Addr, uint64(ex.Addr))
		}
		b.StartTimer()
		h.FlushExtents(exts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/line")
}

// benchFlushExtents measures the batched-flush path the epoch flusher and
// recovery's scan workers drive: each goroutine repeatedly dirties and
// batch-flushes its own word ranges. Allocation-free is part of the contract (ReportAllocs).
func benchFlushExtents(b *testing.B, g int) {
	const words = 1 << 16
	const extPer = 32 // extents per batch
	h := New(Config{Words: words})
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/g + 1
	region := uint64(words / g)
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * region
			exts := make([]Extent, extPer)
			x := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < per; i++ {
				for e := range exts {
					x = x*6364136223846793005 + 1442695040888963407
					a := Addr(base + x%(region-8))
					h.Store(a, x)
					exts[e] = Extent{Addr: a, Words: 4}
				}
				h.FlushExtents(exts)
			}
		}(w)
	}
	wg.Wait()
}
