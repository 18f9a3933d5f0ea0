// Package harness drives the experiments of the paper's evaluation
// section: it builds any internal/kv kind scaled to an experiment,
// generates YCSB-style workloads, measures throughput across
// thread sweeps, and formats results as the rows/series of each figure
// and table. Both cmd/bdbench and the repository's bench_test.go build on
// it.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bdhtm/internal/kv"
	"bdhtm/internal/ycsb"
)

// Dist selects the key distribution.
type Dist struct {
	Zipfian bool
	Theta   float64
}

// Uniform is the uniform key distribution.
var Uniform = Dist{}

// Zipf99 is the paper's default skewed distribution.
var Zipf99 = Dist{Zipfian: true, Theta: ycsb.DefaultZipfian}

func (d Dist) String() string {
	if d.Zipfian {
		return fmt.Sprintf("zipf(%.2f)", d.Theta)
	}
	return "uniform"
}

// Workload describes one experiment's operation stream.
type Workload struct {
	KeySpace uint64
	Dist     Dist
	Mix      ycsb.Mix
	// Prefill loads half of the key space before measuring (the paper's
	// standard setup).
	Prefill bool
}

func (w Workload) generator(seed uint64) *ycsb.Generator {
	if w.Dist.Zipfian {
		return ycsb.NewZipfian(w.KeySpace, w.Dist.Theta, w.Mix, seed)
	}
	return ycsb.NewUniform(w.KeySpace, w.Mix, seed)
}

// Result is one measured point.
type Result struct {
	Threads    int
	Ops        int64
	Elapsed    time.Duration
	Throughput float64 // million operations per second
}

// Run measures the instance under the workload with the given number of
// worker goroutines for roughly the given duration.
func Run(inst *Instance, wl Workload, threads int, dur time.Duration, seed uint64) Result {
	if wl.Prefill {
		Prefill(inst, wl.KeySpace)
	}
	var stop atomic.Bool
	var totalOps atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			h := inst.Store.NewSession()
			g := wl.generator(seed + uint64(tid)*7919)
			ops := int64(0)
			for !stop.Load() {
				for i := 0; i < 64; i++ {
					op, k, v := g.Next()
					apply(h, op, k, v)
				}
				ops += 64
				runtime.Gosched() // let the epoch advancer breathe (single-CPU hosts)
			}
			totalOps.Add(ops)
		}(tid)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	ops := totalOps.Load()
	return Result{
		Threads:    threads,
		Ops:        ops,
		Elapsed:    elapsed,
		Throughput: float64(ops) / elapsed.Seconds() / 1e6,
	}
}

// RunOps measures a fixed operation count per thread (deterministic work,
// used by testing.B benchmarks).
func RunOps(inst *Instance, wl Workload, threads int, opsPerThread int, seed uint64) Result {
	if wl.Prefill {
		Prefill(inst, wl.KeySpace)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			h := inst.Store.NewSession()
			g := wl.generator(seed + uint64(tid)*7919)
			for i := 0; i < opsPerThread; i++ {
				op, k, v := g.Next()
				apply(h, op, k, v)
				if i&63 == 63 {
					runtime.Gosched()
				}
			}
		}(tid)
	}
	wg.Wait()
	elapsed := time.Since(start)
	ops := int64(threads * opsPerThread)
	return Result{Threads: threads, Ops: ops, Elapsed: elapsed,
		Throughput: float64(ops) / elapsed.Seconds() / 1e6}
}

// apply runs one generated operation on the session.
func apply(h kv.Session, op ycsb.OpKind, k, v uint64) {
	switch op {
	case ycsb.OpRead:
		h.Get(k)
	case ycsb.OpInsert:
		h.Insert(k, v)
	case ycsb.OpRemove:
		h.Remove(k)
	}
}

// Prefill inserts every even key (half the key space), the paper's
// standard initial population.
func Prefill(inst *Instance, keySpace uint64) {
	h := inst.Store.NewSession()
	for k := uint64(0); k < keySpace; k += 2 {
		h.Insert(k, k*2654435761+12345)
	}
}

// Series is one line of a figure: throughput by thread count.
type Series struct {
	Name   string
	Points []Result
}

// Sweep measures the subject across thread counts, creating a fresh
// instance per point (so points do not inherit structural state).
func Sweep(build func() *Instance, wl Workload, threads []int, dur time.Duration) Series {
	var s Series
	for _, n := range threads {
		inst := build()
		s.Name = inst.Name
		r := Run(inst, wl, n, dur, 42)
		inst.Close()
		s.Points = append(s.Points, r)
	}
	return s
}

// PrintFigure renders series as an aligned text table: one row per thread
// count, one column per series — the shape of the paper's figures.
func PrintFigure(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-8s", "threads")
	for _, s := range series {
		fmt.Fprintf(w, "%22s", s.Name)
	}
	fmt.Fprintln(w)
	xs := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.Threads] = true
		}
	}
	var order []int
	for x := range xs {
		order = append(order, x)
	}
	sort.Ints(order)
	for _, x := range order {
		fmt.Fprintf(w, "%-8d", x)
		for _, s := range series {
			val := ""
			for _, p := range s.Points {
				if p.Threads == x {
					val = fmt.Sprintf("%.3f Mops/s", p.Throughput)
				}
			}
			fmt.Fprintf(w, "%22s", val)
		}
		fmt.Fprintln(w)
	}
}

// PrintKV renders simple label/value rows (tables, single measurements).
func PrintKV(w io.Writer, title string, rows [][2]string) {
	fmt.Fprintf(w, "\n%s\n", title)
	width := 0
	for _, r := range rows {
		if len(r[0]) > width {
			width = len(r[0])
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-*s  %s\n", width, r[0], r[1])
	}
}
