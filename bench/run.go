package main

import (
	"fmt"
	"runtime"
	"time"

	"bdhtm/internal/bdserve"
	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

// handles is what both surfaces expose of the layers under them; every
// per-layer count is a delta of these public Stats() over a pass.
type handles struct {
	heap    *nvm.Heap
	sys     *epoch.System
	tmStats func() htm.StatsSnapshot
	srv     *bdserve.Server // nil on the embedded surface
}

type layerSnap struct {
	nvm nvm.StatsSnapshot
	tm  htm.StatsSnapshot
	ep  epoch.Stats
	srv bdserve.Counters
}

func (h handles) snapshot() layerSnap {
	s := layerSnap{nvm: h.heap.Stats(), tm: h.tmStats(), ep: h.sys.Stats()}
	if h.srv != nil {
		s.srv = h.srv.Stats()
	}
	return s
}

func (g gcStats) sub(o gcStats) gcStats {
	return gcStats{cycles: g.cycles - o.cycles, pauseNS: g.pauseNS - o.pauseNS}
}

// pass is one timed phase (warm-up, measured, traced) of a workload.
type pass struct {
	ops, writes   int64
	wall, cpu     time.Duration
	rates         [][]float64 // per issuer: every segment's completed ops ÷ segment time
	mediaBytes    int64       // media bytes written, the trailing Sync included
	lat           hist
	kindLat       [3]hist
	durable       hist // issue → durable
	a2d           hist // applied → durable (served)
	decode        hist // wire decode (served, traced)
	wireBytes     int64
	fails         int64
	failNote      string
	before, after layerSnap // after is taken once the trailing Sync returned
	gc            gcStats
	spans         []span
}

func (ps *pass) fail(format string, args ...any) {
	ps.fails++
	if ps.failNote == "" {
		ps.failNote = fmt.Sprintf(format, args...)
	}
}

// opsPerS is the pass's throughput: each issuer's median segment rate, summed.
func (ps *pass) opsPerS() float64 {
	var sum float64
	for _, r := range ps.rates {
		sum += median(r)
	}
	return sum
}

func (ps *pass) allRates() []float64 {
	var all []float64
	for _, r := range ps.rates {
		all = append(all, r...)
	}
	return all
}

// finish stamps the pass's closing snapshot, taken once the trailing Sync
// (or the last durable ack) is in.
func (ps *pass) finish(h handles, gc0 gcStats) {
	ps.gc = readGC().sub(gc0)
	ps.after = h.snapshot()
	ps.mediaBytes = ps.after.nvm.MediaBytes - ps.before.nvm.MediaBytes
}

// absorb folds one issuer's measurements into the pass.
func (ps *pass) absorb(ops, writes int64, rates []float64, lat *hist, kindLat *[3]hist, fails int64, note string) {
	ps.ops += ops
	ps.writes += writes
	ps.rates = append(ps.rates, rates)
	ps.lat.merge(lat)
	for k := range kindLat {
		ps.kindLat[k].merge(&kindLat[k])
	}
	ps.fails += fails
	if ps.failNote == "" {
		ps.failNote = note
	}
}

// sut is a workload's system under test: the embedded table or the server
// with its clients.
type sut interface {
	run(phase int, d time.Duration, segOps int, tr *tracer) *pass
	handles() handles
	liveKeys() int64
	drill(cycles, ops int) *drillResult
	close()
}

type config struct {
	sp      *spec
	seed    uint64
	seconds float64
	trace   bool
	scale   float64
	outDir  string
}

// report is a finished run: the metrics by name, and the failure count.
type report struct {
	attempted, failed int64
	note              string  // first failure, if any
	durableNS         float64 // traced pass: median issue → durable, for the stack-up
	metrics           map[string]float64
}

const (
	setupReps   = 3
	warmSeconds = 1.5
	drillCycles = 5
	segments    = 32 // a measured pass is cut into about this many segments
)

func build(p *plan) (sut, error) {
	if p.sp.served {
		return buildServed(p)
	}
	return buildEmbedded(p), nil
}

// runWorkload runs every phase of one workload and returns its metrics:
// the end-to-end ones untraced, or the per-layer ones from the traced pass.
func runWorkload(cfg config) (*report, error) {
	p := newPlan(cfg.sp, cfg.seed, cfg.scale)
	rep := &report{metrics: map[string]float64{}}
	start, lapStart := time.Now(), time.Now()
	lap := func(phase string) { // where the run's wall time went
		fmt.Printf("phase %-8s %7.2f s\n", phase, time.Since(lapStart).Seconds())
		lapStart = time.Now()
	}

	// A run builds its system several times. Set-up time is the median of
	// the builds: one reading of a one-second phase moves too much to gate
	// on. Each build also carries its share of the measured phase — the
	// same op streams replayed on a fresh instance — because this host's
	// speed drifts over seconds, and measurement spread over the whole run
	// samples more of that drift than one contiguous window does.
	reps := setupReps
	if cfg.trace {
		reps = 1 // the traced run splits its one instance's phase in two instead
	}
	measure := p.seconds(cfg.seconds) / time.Duration(reps)
	warm := p.seconds(warmSeconds) / time.Duration(reps)
	var (
		s      sut
		setups []float64
		segOps int
		m      *pass
		traced *pass
		tr     = &tracer{}
	)
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = build(p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		lap("set-up")

		runtime.GC()
		w := s.run(phaseWarm, warm, 256, nil)
		rep.add(w)
		if segOps == 0 {
			// Segments have a fixed op count, chosen once from the first
			// warm-up's rate so that the measured phase holds about
			// `segments` of them per issuer.
			perIssuer := w.opsPerS() / float64(max(len(w.rates), 1))
			perSegment := p.seconds(cfg.seconds).Seconds() / segments
			segOps = max(traceEvery, int(perIssuer*perSegment)/traceEvery*traceEvery)
		}
		lap("warm-up")

		runtime.GC()
		if cfg.trace {
			m = s.run(phaseMeasure, measure/2, segOps, nil)
			runtime.GC()
			traced = s.run(phaseTraced, measure/2, segOps, tr)
			rep.add(traced)
		} else if part := s.run(phaseMeasure, measure, segOps, nil); m == nil {
			m = part
		} else {
			m.merge(part)
		}
		lap("measure")
	}
	rep.add(m)
	footprint := s.handles().sys.Allocator().FootprintBytes()
	spaceAmp := float64(footprint) / (16 * float64(max(s.liveKeys(), 1)))

	drillOps := p.scaled(1<<16, 256)
	if cfg.sp.served {
		drillOps = p.scaled(1<<14, 256)
	}
	d := s.drill(drillCycles, drillOps)
	lap("drill")
	rep.attempted += d.checked
	rep.failed += d.failed
	if rep.note == "" {
		rep.note = d.note
	}

	// The wall-clock numbers always come from the untraced measurement.
	rep.metrics["bench.ops_per_s"] = m.opsPerS()
	rep.metrics["bench.op_p50_us"] = m.lat.quantile(0.5) / 1e3
	rep.metrics["bench.cpu_us_per_op"] = float64(m.cpu) / 1e3 / float64(m.ops)
	rep.metrics["bench.recover_s"] = median(d.times)
	if !cfg.trace {
		rep.metrics["durable_p50_ms"] = m.durable.quantile(0.5) / 1e6
		rep.metrics["write_amp"] = float64(m.mediaBytes) / (16 * float64(max(m.writes, 1)))
		rep.metrics["space_amp"] = spaceAmp
		rep.metrics["setup_s"] = median(setups)
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		fmt.Printf("phase %-8s %7.2f s\n", "total", time.Since(start).Seconds())
		return rep, nil
	}

	layerCounts(rep.metrics, traced, s.handles())
	if err := probes(rep.metrics, p, s, traced); err != nil {
		return nil, err
	}
	lap("probes")
	drillMetrics(rep.metrics, d, cfg.sp.served)
	benchMetrics(rep.metrics, m, traced)
	rep.durableNS = traced.durable.quantile(0.5)
	path, err := writeSpans(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.sp.name, cfg.seed), traced.spans)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(traced.spans), path)
	fmt.Printf("phase %-8s %7.2f s\n", "total", time.Since(start).Seconds())
	return rep, nil
}

// merge adds a later measured pass of the same workload — the same op
// streams replayed on a freshly built instance — to ps. Segments pool per
// issuer; counts and times add up.
func (ps *pass) merge(o *pass) {
	ps.ops += o.ops
	ps.writes += o.writes
	ps.wall += o.wall
	ps.cpu += o.cpu
	ps.mediaBytes += o.mediaBytes
	for i := range o.rates {
		if i == len(ps.rates) {
			ps.rates = append(ps.rates, nil)
		}
		ps.rates[i] = append(ps.rates[i], o.rates[i]...)
	}
	ps.lat.merge(&o.lat)
	ps.durable.merge(&o.durable)
	ps.fails += o.fails
	if ps.failNote == "" {
		ps.failNote = o.failNote
	}
	ps.gc.cycles += o.gc.cycles
	ps.gc.pauseNS += o.gc.pauseNS
}

func (r *report) add(ps *pass) {
	r.attempted += ps.ops
	r.failed += ps.fails
	if r.note == "" {
		r.note = ps.failNote
	}
}
