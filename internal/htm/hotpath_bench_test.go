package htm

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"bdhtm/internal/obs"
)

// BenchmarkHotPath measures the transaction engine's fast paths: read-only
// and read-write transactions, and commit cost across write-set sizes,
// at 1-8 goroutines. Goroutines work on disjoint cache lines, so aborts
// come only from hash collisions in the versioned-lock table — the
// benchmark isolates bookkeeping cost (set maintenance, lock acquisition,
// validation), not conflict behaviour. CI runs it with -benchtime=100x;
// EXPERIMENTS.md records full-length before/after numbers.
func BenchmarkHotPath(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("tx-readonly/goroutines=%d", g), func(b *testing.B) {
			benchTx(b, g, 16, 0)
		})
		b.Run(fmt.Sprintf("tx-readwrite/goroutines=%d", g), func(b *testing.B) {
			benchTx(b, g, 8, 8)
		})
	}
	for _, ws := range []int{1, 16, 256} {
		for _, g := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("commit/ws=%d/goroutines=%d", ws, g), func(b *testing.B) {
				benchTx(b, g, 0, ws)
			})
		}
	}
	// The request-tracing overhead matrix: the same read-write
	// transaction with the service hot path's per-request sampling
	// decision in the loop. sampling=off is the production default and
	// holds EXPERIMENTS.md's ≤2% overhead gate against plain tx-readwrite.
	for _, every := range []int{0, 1024, 16} {
		name := "off"
		if every > 0 {
			name = fmt.Sprintf("1in%d", every)
		}
		b.Run("tx-readwrite-span/sampling="+name, func(b *testing.B) {
			benchTxSpan(b, 1, 8, 8, every)
		})
	}
	// The mixed big/small matrix: one capacity-bound writer loops forever
	// down the slow path (its write set is one line past MaxWriteLines, so
	// every attempt aborts with CauseCapacity and Run takes the session)
	// while g small read-modify-write transactions on disjoint private
	// lines measure their own latency. Disjoint lines never conflict with
	// a session, so the small transactions keep committing mid-fallback;
	// the reported p99-ns metric is the small-transaction p99. The
	// mode=fine label keeps the cells comparable with EXPERIMENTS.md's
	// recorded fine-vs-global table.
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("fallback-mixed/mode=fine/small=%d", g), func(b *testing.B) {
			benchFallbackMixed(b, g)
		})
	}
}

// benchFallbackMixed runs b.N small transactions split across g
// goroutines while one background writer keeps the fallback path
// saturated with capacity-overflow sessions, and reports the merged
// small-transaction p99 latency.
func benchFallbackMixed(b *testing.B, g int) {
	tm := Default()
	bigLines := tm.cfg.MaxWriteLines + 1
	big := make([]uint64, bigLines*8)
	stop := make(chan struct{})
	var bigWG sync.WaitGroup
	bigWG.Add(1)
	go func() {
		defer bigWG.Done()
		var i uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			tm.Run(nil, 2, nil, func(tx *Tx) {
				for l := 0; l < bigLines; l++ {
					tx.Store(&big[l*8], i)
				}
			})
		}
	}()
	regions := make([][]uint64, g)
	lat := make([][]time.Duration, g)
	for w := range regions {
		regions[w] = make([]uint64, 2*8)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/g + 1
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			region := regions[w]
			samples := make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				start := time.Now()
				for !tm.Attempt(func(tx *Tx) {
					tx.Store(&region[0], tx.Load(&region[0])+1)
					tx.Store(&region[8], uint64(i))
				}).Committed {
				}
				samples = append(samples, time.Since(start))
			}
			lat[w] = samples
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	close(stop)
	bigWG.Wait()
	var all []time.Duration
	for _, s := range lat {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		b.ReportMetric(float64(all[len(all)*99/100]), "p99-ns")
	}
}

// benchTxSpan is benchTx with the span hot path included: one
// deterministic sampling decision per transaction and, for sampled
// requests, the attempt-tally and finish cost a traced request pays.
func benchTxSpan(b *testing.B, g, nReads, nWrites, every int) {
	tm := New(Config{})
	rec := obs.New("hotpath-bench")
	if every > 0 {
		rec.EnableSpans(8192, every)
	}
	lines := nReads + nWrites
	regions := make([][]uint64, g)
	for w := range regions {
		regions[w] = make([]uint64, lines*8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/g + 1
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			region := regions[w]
			var sink uint64
			for i := 0; i < per; i++ {
				sp := rec.SampleSpan(uint64(w)<<32|uint64(i), uint64(w), 1)
				for {
					res := tm.AttemptSpan(sp, func(tx *Tx) {
						for r := 0; r < nReads; r++ {
							sink += tx.Load(&region[r*8])
						}
						for wr := 0; wr < nWrites; wr++ {
							tx.Store(&region[(nReads+wr)*8], uint64(i))
						}
					})
					if res.Committed {
						break
					}
				}
				sp.Finish()
			}
			_ = sink
		}(w)
	}
	wg.Wait()
}

// benchTx runs b.N transactions split across g goroutines; each
// transaction reads nReads words and writes nWrites words, one word per
// cache line, all within the goroutine's private region.
func benchTx(b *testing.B, g, nReads, nWrites int) {
	tm := New(Config{})
	lines := nReads + nWrites
	if lines == 0 {
		b.Fatal("empty transaction")
	}
	// One padded region per goroutine: lines cache lines, 8 words each.
	regions := make([][]uint64, g)
	for w := range regions {
		regions[w] = make([]uint64, lines*8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/g + 1
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			region := regions[w]
			var sink uint64
			for i := 0; i < per; i++ {
				for {
					res := tm.Attempt(func(tx *Tx) {
						for r := 0; r < nReads; r++ {
							sink += tx.Load(&region[r*8])
						}
						for wr := 0; wr < nWrites; wr++ {
							tx.Store(&region[(nReads+wr)*8], uint64(i))
						}
					})
					if res.Committed {
						break
					}
				}
			}
			_ = sink
		}(w)
	}
	wg.Wait()
}
