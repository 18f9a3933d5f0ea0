package harness

import (
	"sync"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// Collector accumulates machine-readable benchmark rows (obs.BenchRow)
// while experiments run: Run and RunLatency append one row per measurement
// to the collector they are handed, tagged with its current experiment
// label, and bdbench writes the finished report as BENCH_*.json.
type Collector struct {
	Report *obs.Report

	mu         sync.Mutex
	experiment string
}

// NewCollector creates a collector around an empty report.
func NewCollector(cfg obs.RunConfig) *Collector {
	return &Collector{Report: obs.NewReport(cfg)}
}

// SetExperiment labels subsequent rows (e.g. "fig1", "tail"); a no-op on
// a nil collector.
func (c *Collector) SetExperiment(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.experiment = name
	c.mu.Unlock()
}

func (c *Collector) experimentName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.experiment
}

// Append adds a prebuilt row, tagged with the current experiment label
// when it carries none; a nil collector drops it. Experiments that measure
// outside Run/RunLatency (bdbench's hotpath matrix, recovery, serve) land
// their rows in the same report with it.
func (c *Collector) Append(row obs.BenchRow) {
	if c == nil {
		return
	}
	if row.Experiment == "" {
		row.Experiment = c.experimentName()
	}
	c.Report.Append(row)
}

// statsBaseline captures an instance's absolute counters so a row can
// report the measured interval only (prefill traffic excluded).
type statsBaseline struct {
	tm    htm.StatsSnapshot
	nvm   nvm.StatsSnapshot
	epoch epoch.Stats
}

func captureBaseline(inst *Instance) statsBaseline {
	var b statsBaseline
	if inst.TM != nil {
		b.tm = inst.TM.Stats()
	}
	if inst.Heap != nil {
		b.nvm = inst.Heap.Stats()
	}
	if inst.Sys != nil {
		b.epoch = inst.Sys.Stats()
	}
	return b
}

// buildRow assembles one BenchRow from a finished measurement.
func buildRow(c *Collector, inst *Instance, wl Workload, res Result, base statsBaseline, lat *obs.LatencySummary) obs.BenchRow {
	row := obs.BenchRow{
		Experiment: c.experimentName(),
		Structure:  inst.Name,
		Threads:    res.Threads,
		Dist:       wl.Dist.String(),
		ReadPct:    wl.Mix.ReadPct,
		Ops:        res.Ops,
		ElapsedNS:  res.Elapsed.Nanoseconds(),
		Mops:       res.Throughput,
		Latency:    lat,
	}
	if inst.TM != nil {
		d := inst.TM.Stats().Sub(base.tm)
		row.HTM = &obs.HTMSummary{
			Attempts:   d.Attempts(),
			Commits:    d.Commits,
			CommitRate: d.CommitRate(),
			Aborts: map[string]int64{
				"conflict": d.Conflict, "capacity": d.Capacity,
				"explicit": d.Explicit, "spurious": d.Spurious,
				"memtype": d.MemType, "persist-op": d.PersistOp,
			},
		}
	}
	if inst.Heap != nil {
		d := inst.Heap.Stats().Sub(base.nvm)
		row.NVM = &obs.NVMSummary{
			Flushes:            d.Flushes,
			Fences:             d.Fences,
			LineWritebacks:     d.LineWritebacks,
			MediaWrites:        d.MediaWrites,
			MediaBytes:         d.MediaBytes,
			UsefulBytes:        d.UsefulBytes,
			WriteAmplification: d.WriteAmplification(),
		}
		if res.Ops > 0 {
			row.NVM.FencesPerOp = float64(d.Fences) / float64(res.Ops)
		}
	}
	if inst.Sys != nil {
		e := inst.Sys.Stats()
		row.Epoch = &obs.EpochSummary{
			Advances:      e.Advances - base.epoch.Advances,
			FlushedBlocks: e.FlushedBlocks - base.epoch.FlushedBlocks,
			RetiredBlocks: e.RetiredBlocks - base.epoch.RetiredBlocks,
			FreedBlocks:   e.FreedBlocks - base.epoch.FreedBlocks,
			AdvanceP99NS:  e.AdvanceP99NS,
			Backpressure:  e.Backpressure - base.epoch.Backpressure,
			Engine:        e.Engine,
			EngineCommits: e.EngineCommits - base.epoch.EngineCommits,
			EngineFences:  e.EngineFences - base.epoch.EngineFences,
			EngineFlushes: e.EngineFlushes - base.epoch.EngineFlushes,
			LogSpills:     e.LogSpills - base.epoch.LogSpills,
		}
	}
	return row
}
