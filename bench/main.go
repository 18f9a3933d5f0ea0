// Command bench is the repository's benchmark: five workloads over the
// embedded bdhash table and the bdserve network service, five end-to-end
// metrics, and a traced pass that attributes them to layers. See README.md.
//
//	bench -workload embed_write -seed 1 -seconds 8 -trace 0   one workload, end-to-end metrics
//	bench -workload serve_rtt -seed 1 -seconds 8 -trace 1     traced pass: per-layer metrics, stack-up, spans
//	bench                                                     all five workloads, one process each
//	bench -selfcheck 5                                        A/A: two interleaved sets of 5 passes
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

type metricDef struct{ name, unit string }

// The metric tables mirror BENCHMARK.json; a test holds them together.
var endToEnd = []metricDef{
	{"durable_p50_ms", "ms"}, {"write_amp", "ratio"}, {"space_amp", "ratio"},
	{"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"nvm.load_ns", "ns"}, {"nvm.store_ns", "ns"}, {"nvm.flush_ns", "ns"}, {"nvm.fence_ns", "ns"},
	{"nvm.flush_extents_ns_per_line", "ns"}, {"nvm.flushes_per_op", "count"}, {"nvm.fences_per_op", "count"},
	{"nvm.media_bytes_per_op", "bytes"}, {"nvm.useful_bytes_per_op", "bytes"}, {"nvm.line_writebacks_per_op", "count"},
	{"htm.attempt_r8_ns", "ns"}, {"htm.attempt_r8w8_ns", "ns"}, {"htm.attempts_per_op", "count"},
	{"htm.commit_ratio", "ratio"}, {"htm.conflict_aborts_per_kop", "count"}, {"htm.capacity_aborts_per_kop", "count"},
	{"htm.explicit_aborts_per_kop", "count"}, {"htm.fallback_acquires_per_kop", "count"},
	{"htm.fallback_lines_per_acquire", "count"}, {"htm.fallback_restarts_per_kop", "count"},
	{"palloc.alloc_free_ns", "ns"}, {"palloc.footprint_bytes", "bytes"}, {"palloc.live_bytes", "bytes"},
	{"palloc.live_blocks", "count"},
	{"epoch.op_bracket_ns", "ns"}, {"epoch.tracked_op_ns", "ns"}, {"epoch.advance_us_per_kblock", "us"},
	{"epoch.advances_per_s", "1/s"}, {"epoch.flushed_blocks_per_op", "count"}, {"epoch.retired_blocks_per_op", "count"},
	{"epoch.freed_per_retired", "ratio"}, {"epoch.backpressure_per_advance", "ratio"},
	{"epoch.recover_scan_s", "s"}, {"epoch.recover_rebuild_s", "s"},
	{"durability.fences_per_commit", "count"}, {"durability.flushes_per_commit", "count"},
	{"durability.log_words_per_commit", "count"},
	{"bdhash.get_ns", "ns"}, {"bdhash.insert_ns", "ns"}, {"bdhash.remove_ns", "ns"}, {"bdhash.rebuild_ns_per_block", "ns"},
	{"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"}, {"wire.bytes_per_op", "bytes"},
	{"bdserve.rtt_get_us", "us"}, {"bdserve.rtt_put_applied_us", "us"}, {"bdserve.service_overhead_us", "us"},
	{"bdserve.applied_to_durable_ms", "ms"}, {"bdserve.durable_acks_per_advance", "count"},
	{"bdserve.ack_lag_epochs_max", "count"}, {"bdserve.requests_per_write_commit", "ratio"},
	{"bdserve.recover_ready_s", "s"},
	// Wall-clock numbers this host cannot repeat well enough to gate on
	// (README, "Demoted"): measured untraced, reported as diagnostics.
	{"bench.ops_per_s", "ops/s"}, {"bench.op_p50_us", "us"}, {"bench.cpu_us_per_op", "us"}, {"bench.recover_s", "s"},
	{"bench.op_p90_us", "us"}, {"bench.op_p99_us", "us"}, {"bench.op_p999_us", "us"}, {"bench.durable_p95_ms", "ms"},
	{"bench.segment_iqr_pct", "%"}, {"bench.segments", "count"}, {"bench.samples", "count"},
	{"bench.gc_cycles", "count"}, {"bench.gc_pause_ms", "ms"}, {"bench.first_recover_s", "s"},
	{"bench.trace_overhead_pct", "%"},
}

// outMetric and outLine are the result line's JSON shape.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run; empty runs all five, one process each")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed gives the same op streams")
		seconds   = flag.Float64("seconds", 8, "length of the measured phase")
		trace     = flag.Int("trace", 0, "1: traced pass — per-layer metrics, stack-up and spans instead of end-to-end metrics")
		scale     = flag.Float64("scale", 1, "shrink data sizes and durations by this factor (tests)")
		outDir    = flag.String("out", "bench/out", "directory the traced pass writes spans to")
		selfcheck = flag.Int("selfcheck", 0, "A/A mode: run two interleaved sets of this many passes and compare them")
		benchFile = flag.String("benchmark", "BENCHMARK.json", "benchmark definition (the self-check reads its bounds)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *scale <= 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: *scale, outDir: *outDir}
	switch {
	case *selfcheck > 0:
		os.Exit(selfCheck(*selfcheck, cfg, *benchFile))
	case *workload == "":
		os.Exit(runAll(cfg))
	}
	if cfg.sp = findSpec(*workload); cfg.sp == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.sp.name, err)
		os.Exit(1)
	}
	if !emit(os.Stdout, cfg.sp.name, rep, cfg.trace) {
		os.Exit(1)
	}
}

// emit prints every metric by name and unit, then the result line. It
// reports whether the run was correct: no failed op, every metric a finite
// number.
func emit(w io.Writer, workload string, rep *report, traced bool) bool {
	defs, also := endToEnd, perLayer
	if traced {
		defs, also = perLayer, nil
	}
	line := outLine{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]outMetric{}}
	line.Correct = rep.failed == 0 && rep.attempted > 0
	show := func(d metricDef, v float64) {
		fmt.Fprintf(w, "%-16s %-34s %16s %s\n", workload, d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s missing or not finite\n", workload, d.name)
			line.Correct = false
			v = 0
		}
		show(d, v)
		line.Metrics[d.name] = outMetric{v, d.unit}
	}
	for _, d := range also { // an untraced run also shows the diagnostics it measured
		if v, ok := rep.metrics[d.name]; ok {
			show(d, v)
		}
	}
	if traced {
		stackUp(w, rep.metrics, rep.durableNS)
	}
	fmt.Fprintf(w, "%-16s attempted %d failed %d\n", workload, rep.attempted, rep.failed)
	if rep.note != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: first failure: %s\n", workload, rep.note)
	}
	js, _ := json.Marshal(line) // plain numbers and strings always marshal
	fmt.Fprintln(w, string(js))
	return line.Correct
}

// child runs one workload in a process of its own — peak_rss_mb is a
// per-process number — and returns its result line.
func child(c config, echo bool) (*outLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if c.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", c.sp.name, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds),
		"-trace", trace, "-scale", fmt.Sprint(c.scale), "-out", c.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.sp.name, err)
	}
	return lastLine(out)
}

// lastLine parses the result line: the last line of a run's output.
func lastLine(out []byte) (*outLine, error) {
	out = bytes.TrimRight(out, "\n")
	var line outLine
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &line); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &line, nil
}

func runAll(c config) int {
	code := 0
	for i := range specs {
		c.sp = &specs[i]
		if _, err := child(c, true); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	return code
}
