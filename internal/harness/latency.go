package harness

import (
	"fmt"
	"io"
	"sort"
	"time"
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
// thread's latency distribution.
func RunLatency(inst *Instance, wl Workload, ops int, bgThreads int, seed uint64) LatencyResult {
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
					apply(h, op, k, v)
				}
			}
		}(t)
	}
	h := inst.Store.NewSession()
	g := wl.generator(seed)
	lat := make([]time.Duration, ops)
	for i := 0; i < ops; i++ {
		op, k, v := g.Next()
		start := time.Now()
		apply(h, op, k, v)
		lat[i] = time.Since(start)
	}
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
	return LatencyResult{
		Ops:  ops,
		P50:  pick(0.50),
		P99:  pick(0.99),
		P999: pick(0.999),
		Max:  lat[len(lat)-1],
	}
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
