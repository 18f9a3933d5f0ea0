package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"bdhtm/internal/obs"
	"bdhtm/internal/ycsb"
)

// LatencyResult holds per-operation latency percentiles, for the paper's
// Sec. 4.2 claim that the BDL skiplist preserves the nonblocking
// original's low tail latency while strict durability (or coarse
// locking) inflates it.
type LatencyResult struct {
	Ops  int
	P50  time.Duration
	P99  time.Duration
	P999 time.Duration
	Max  time.Duration
}

// RunLatency executes ops operations on one goroutine while background
// goroutines apply contending traffic, and reports the foreground
// thread's latency distribution, appending its row to c (nil collects
// nothing).
func RunLatency(c *Collector, inst *Instance, wl Workload, ops int, bgThreads int, seed uint64) LatencyResult {
	if wl.Prefill {
		Prefill(inst, wl.KeySpace)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	for t := 0; t < bgThreads; t++ {
		go func(tid int) {
			defer func() { done <- struct{}{} }()
			h := inst.Store.NewSession()
			g := wl.generator(seed + 1000 + uint64(tid)*131)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 32; i++ {
					op, k, v := g.Next()
					switch op {
					case ycsb.OpRead:
						h.Get(k)
					case ycsb.OpInsert:
						h.Insert(k, v)
					case ycsb.OpRemove:
						h.Remove(k)
					}
				}
			}
		}(t)
	}
	var base statsBaseline
	if c != nil {
		base = captureBaseline(inst)
	}
	h := inst.Store.NewSession()
	g := wl.generator(seed)
	lat := make([]time.Duration, ops)
	fgStart := time.Now()
	for i := 0; i < ops; i++ {
		op, k, v := g.Next()
		start := time.Now()
		switch op {
		case ycsb.OpRead:
			h.Get(k)
		case ycsb.OpInsert:
			h.Insert(k, v)
		case ycsb.OpRemove:
			h.Remove(k)
		}
		lat[i] = time.Since(start)
	}
	fgElapsed := time.Since(fgStart)
	close(stop)
	for t := 0; t < bgThreads; t++ {
		<-done
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pick := func(q float64) time.Duration {
		i := int(q * float64(len(lat)))
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i]
	}
	res := LatencyResult{
		Ops:  ops,
		P50:  pick(0.50),
		P99:  pick(0.99),
		P999: pick(0.999),
		Max:  lat[len(lat)-1],
	}
	if c != nil {
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		c.Report.Append(buildRow(c, inst, wl, Result{
			Threads: 1 + bgThreads,
			Ops:     int64(ops),
			Elapsed: fgElapsed,
			// Foreground Mops only: the tail experiment measures the
			// instrumented thread, not aggregate throughput.
			Throughput: float64(ops) / fgElapsed.Seconds() / 1e6,
		}, base, &obs.LatencySummary{
			Count:  int64(ops),
			MeanNS: float64(sum.Nanoseconds()) / float64(ops),
			P50:    pick(0.50).Nanoseconds(),
			P90:    pick(0.90).Nanoseconds(),
			P99:    pick(0.99).Nanoseconds(),
			P999:   pick(0.999).Nanoseconds(),
			Max:    res.Max.Nanoseconds(),
		}))
	}
	return res
}

// PrintLatency renders one row per subject.
func PrintLatency(w io.Writer, title string, rows map[string]LatencyResult, order []string) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-22s %12s %12s %12s %12s\n", "structure", "p50", "p99", "p99.9", "max")
	for _, name := range order {
		r := rows[name]
		fmt.Fprintf(w, "%-22s %12v %12v %12v %12v\n", name, r.P50, r.P99, r.P999, r.Max)
	}
}
