package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// SchemaVersion identifies the BENCH_*.json layout. Downstream tooling
// (CI schema checks, EXPERIMENTS.md regeneration, trend dashboards) keys
// on this string; bump it only with a deliberate format change.
const SchemaVersion = "bdhtm-bench/v1"

// Report is the machine-readable result of one bdbench invocation: the
// run configuration plus one BenchRow per measured point. Append is
// safe for concurrent use.
type Report struct {
	Schema  string     `json:"schema"`
	Config  RunConfig  `json:"config"`
	Results []BenchRow `json:"results"`

	mu sync.Mutex
}

// RunConfig echoes the bdbench flags that shaped the run.
type RunConfig struct {
	KeySpace   uint64 `json:"keyspace"`
	DurationNS int64  `json:"duration_ns"`
	Threads    []int  `json:"threads"`
	Latency    bool   `json:"latency_model"`
	Full       bool   `json:"full"`
	// Engine is the durability engine the run was pinned to ("" means
	// the per-experiment default; the engines experiment sweeps them).
	Engine string `json:"engine,omitempty"`
}

// NewReport creates an empty report for the given configuration.
func NewReport(cfg RunConfig) *Report {
	return &Report{Schema: SchemaVersion, Config: cfg}
}

// Append adds one measured row.
func (r *Report) Append(row BenchRow) {
	r.mu.Lock()
	r.Results = append(r.Results, row)
	r.mu.Unlock()
}

// Len returns the number of rows collected so far.
func (r *Report) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.Results)
}

// MarshalIndent renders the report as stable, indented JSON.
func (r *Report) MarshalIndent() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return json.MarshalIndent(struct {
		Schema  string     `json:"schema"`
		Config  RunConfig  `json:"config"`
		Results []BenchRow `json:"results"`
	}{r.Schema, r.Config, r.Results}, "", "  ")
}

// WriteFile validates the report against its own schema and writes it.
func (r *Report) WriteFile(path string) error {
	data, err := r.MarshalIndent()
	if err != nil {
		return err
	}
	if err := ValidateReport(data); err != nil {
		return fmt.Errorf("obs: refusing to write schema-invalid report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BenchRow is one measured point: a structure under a workload at a
// thread count. Optional sections are omitted when the structure has no
// corresponding substrate (a transient tree has no NVM section).
type BenchRow struct {
	Experiment string `json:"experiment"`
	Structure  string `json:"structure"`
	Threads    int    `json:"threads"`
	Dist       string `json:"dist"`
	ReadPct    int    `json:"read_pct"`

	Ops       int64   `json:"ops"`
	ElapsedNS int64   `json:"elapsed_ns"`
	Mops      float64 `json:"mops_per_sec"`

	Latency  *LatencySummary  `json:"latency_ns,omitempty"`
	HTM      *HTMSummary      `json:"htm,omitempty"`
	NVM      *NVMSummary      `json:"nvm,omitempty"`
	Epoch    *EpochSummary    `json:"epoch,omitempty"`
	Net      *NetSummary      `json:"net,omitempty"`
	Recovery *RecoverySummary `json:"recovery,omitempty"`
}

// LatencySummary holds per-operation latency percentiles in nanoseconds.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean"`
	P50    int64   `json:"p50"`
	P90    int64   `json:"p90"`
	P99    int64   `json:"p99"`
	P999   int64   `json:"p999"`
	Max    int64   `json:"max"`
}

// FromHist summarizes a histogram snapshot.
func (l *LatencySummary) FromHist(h HistSnapshot) {
	l.Count = h.Count
	l.MeanNS = h.Mean()
	l.P50 = h.Quantile(0.50)
	l.P90 = h.Quantile(0.90)
	l.P99 = h.Quantile(0.99)
	l.P999 = h.Quantile(0.999)
	l.Max = h.MaxNS
}

// HTMSummary is the commit/abort breakdown of the paper's Fig. 2.
type HTMSummary struct {
	Attempts   int64            `json:"attempts"`
	Commits    int64            `json:"commits"`
	CommitRate float64          `json:"commit_rate"`
	Aborts     map[string]int64 `json:"aborts"`
	// Fallback is the slow-path ledger (omitted by rows produced before
	// fallback sessions existed): sessions started ("acquires"), the
	// table "lines" they locked, fast-path aborts "blocked" on a
	// session-held slot, and bounded-wait session "restarts".
	Fallback map[string]int64 `json:"fallback,omitempty"`
}

// NVMSummary is the persist-cost accounting of the paper's Sec. 5.1.
type NVMSummary struct {
	Flushes            int64   `json:"flushes"`
	Fences             int64   `json:"fences"`
	LineWritebacks     int64   `json:"line_writebacks"`
	MediaWrites        int64   `json:"media_writes"`
	MediaBytes         int64   `json:"media_bytes"`
	UsefulBytes        int64   `json:"useful_bytes"`
	WriteAmplification float64 `json:"write_amplification"`
	// FencesPerOp is total heap fences divided by completed operations —
	// the headline persist-cost figure the durability engines trade on
	// (omitted by rows produced before pluggable engines existed).
	FencesPerOp float64 `json:"fences_per_op,omitempty"`
}

// EpochSummary is the epoch system's background activity.
type EpochSummary struct {
	Advances      int64 `json:"advances"`
	FlushedBlocks int64 `json:"flushed_blocks"`
	RetiredBlocks int64 `json:"retired_blocks"`
	FreedBlocks   int64 `json:"freed_blocks"`

	// Advance-pipeline health (omitted by rows produced before the
	// advance pipeline existed).
	AdvanceP99NS int64 `json:"advance_p99_ns,omitempty"`
	Backpressure int64 `json:"backpressure,omitempty"`

	// Durability-engine accounting (omitted by rows produced before
	// pluggable engines existed). EngineFences counts only the fences the
	// engine itself issued at epoch close, a subset of NVMSummary.Fences.
	Engine        string `json:"engine,omitempty"`
	EngineCommits int64  `json:"engine_commits,omitempty"`
	EngineFences  int64  `json:"engine_fences,omitempty"`
	EngineFlushes int64  `json:"engine_flushes,omitempty"`
	LogSpills     int64  `json:"log_spills,omitempty"`
}

// NetSummary is the service-layer view from a bdbench serve run: the
// client-observed ack latencies and the applied-vs-durable gap (omitted
// by rows produced by non-networked experiments). NetP50NS/NetP99NS
// measure request-to-final-ack round trips as seen by loadgen — in
// buffered mode the final ack is the durable one, so the gap between
// these and the applied-ack latency is exactly the group-commit wait.
type NetSummary struct {
	Conns    int    `json:"conns"`
	Mode     string `json:"mode"` // "closed" or "open" loop
	SyncAcks bool   `json:"sync_acks,omitempty"`

	NetP50NS int64 `json:"net_p50_ns"`
	NetP99NS int64 `json:"net_p99_ns"`

	AckedApplied int64 `json:"acked_applied"`
	AckedDurable int64 `json:"acked_durable"`
	// AckLagEpochs is the worst observed distance between the durable
	// watermark and a just-acked op's commit epoch — bounded by the BDL
	// window (2) when acks drain promptly.
	AckLagEpochs int64 `json:"ack_lag_epochs"`
	ProtoErrors  int64 `json:"proto_errors,omitempty"`

	// SLO is the server-side durability-SLO breakdown (omitted by rows
	// from runs without an obs recorder on the server).
	SLO *NetSLO `json:"slo,omitempty"`
}

// NetSLO summarizes the server-side SLO histograms of a serve run: ack
// latencies split applied vs durable, the commit→durable lag in both
// clocks (wall time and epochs), and the HTM abort-cause breakdown the
// service saw. DurableSamples is the durable-ack histogram count and
// must equal the row's AckedDurable — each durable ack records exactly
// one sample, the conservation law ValidateReport enforces.
type NetSLO struct {
	AppliedAckP50NS int64 `json:"applied_ack_p50_ns"`
	AppliedAckP99NS int64 `json:"applied_ack_p99_ns"`
	DurableAckP50NS int64 `json:"durable_ack_p50_ns"`
	DurableAckP99NS int64 `json:"durable_ack_p99_ns"`

	AckLagP50NS     int64 `json:"ack_lag_p50_ns"`
	AckLagP99NS     int64 `json:"ack_lag_p99_ns"`
	AckLagP50Epochs int64 `json:"ack_lag_p50_epochs"`
	AckLagP99Epochs int64 `json:"ack_lag_p99_epochs"`

	DurableSamples int64            `json:"durable_samples"`
	AbortCauses    map[string]int64 `json:"abort_causes,omitempty"`
}

// RecoverySummary is one measured crash-recovery point from the recover
// experiment: a heap of HeapWords scanned by Workers goroutines (omitted
// by rows from non-recovery experiments).
type RecoverySummary struct {
	HeapWords       int64 `json:"heap_words"`
	Workers         int   `json:"workers"`
	ScanNS          int64 `json:"scan_ns"`
	RebuildNS       int64 `json:"rebuild_ns"`
	BlocksRecovered int64 `json:"blocks_recovered"`
	Resurrected     int64 `json:"resurrected"`
}

// ValidateReport checks that data parses as a schema-conformant report:
// current schema version, no unknown fields, and per-row sanity (names
// present, non-negative counts, ordered percentiles, rates in range,
// write amplification ≥ 1). It is the check CI's bench-smoke lane and
// the golden-file tests run.
func ValidateReport(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("report does not parse: %w", err)
	}
	if rep.Schema != SchemaVersion {
		return fmt.Errorf("schema %q, want %q", rep.Schema, SchemaVersion)
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("report has no results")
	}
	for i, row := range rep.Results {
		where := fmt.Sprintf("results[%d] (%s/%s)", i, row.Experiment, row.Structure)
		if row.Experiment == "" || row.Structure == "" {
			return fmt.Errorf("%s: empty experiment or structure name", where)
		}
		if row.Threads < 1 {
			return fmt.Errorf("%s: threads %d < 1", where, row.Threads)
		}
		if row.Ops < 0 || row.ElapsedNS <= 0 || row.Mops < 0 {
			return fmt.Errorf("%s: bad ops/elapsed/mops (%d, %d, %f)", where, row.Ops, row.ElapsedNS, row.Mops)
		}
		// The fallback experiment's whole point is the small-transaction
		// latency distribution and the slow-path ledger; a row without
		// either section is a generation bug, not a valid report.
		if row.Experiment == "fallback" && (row.Latency == nil || row.HTM == nil) {
			return fmt.Errorf("%s: fallback rows require latency and htm sections", where)
		}
		if l := row.Latency; l != nil {
			if l.Count < 0 || l.P50 < 0 {
				return fmt.Errorf("%s: negative latency fields", where)
			}
			if !(l.P50 <= l.P90 && l.P90 <= l.P99 && l.P99 <= l.P999 && l.P999 <= l.Max) {
				return fmt.Errorf("%s: latency percentiles not monotonic (%d/%d/%d/%d/%d)",
					where, l.P50, l.P90, l.P99, l.P999, l.Max)
			}
		}
		if h := row.HTM; h != nil {
			var aborts int64
			for _, n := range h.Aborts {
				if n < 0 {
					return fmt.Errorf("%s: negative abort count", where)
				}
				aborts += n
			}
			if h.Attempts != h.Commits+aborts {
				return fmt.Errorf("%s: attempts %d != commits %d + aborts %d", where, h.Attempts, h.Commits, aborts)
			}
			if h.CommitRate < 0 || h.CommitRate > 1 {
				return fmt.Errorf("%s: commit rate %f outside [0,1]", where, h.CommitRate)
			}
			for name, n := range h.Fallback {
				if n < 0 {
					return fmt.Errorf("%s: negative fallback counter %q", where, name)
				}
			}
			if h.Fallback != nil && h.Fallback["lines"] < h.Fallback["acquires"] {
				return fmt.Errorf("%s: fallback lines %d < acquires %d (every session locks at least one line)",
					where, h.Fallback["lines"], h.Fallback["acquires"])
			}
		}
		if n := row.NVM; n != nil {
			if n.UsefulBytes > n.MediaBytes {
				return fmt.Errorf("%s: useful bytes %d > media bytes %d", where, n.UsefulBytes, n.MediaBytes)
			}
			if n.WriteAmplification < 1 {
				return fmt.Errorf("%s: write amplification %f < 1", where, n.WriteAmplification)
			}
			if n.FencesPerOp < 0 {
				return fmt.Errorf("%s: fences per op %f < 0", where, n.FencesPerOp)
			}
		}
		if e := row.Epoch; e != nil {
			if e.Advances < 0 || e.FlushedBlocks < 0 || e.RetiredBlocks < 0 || e.FreedBlocks < 0 {
				return fmt.Errorf("%s: negative epoch counters", where)
			}
			if e.FreedBlocks > e.RetiredBlocks {
				return fmt.Errorf("%s: freed blocks %d > retired blocks %d", where, e.FreedBlocks, e.RetiredBlocks)
			}
			if e.Backpressure < 0 || e.AdvanceP99NS < 0 {
				return fmt.Errorf("%s: negative epoch pipeline fields", where)
			}
			if e.EngineCommits < 0 || e.EngineFences < 0 || e.EngineFlushes < 0 || e.LogSpills < 0 {
				return fmt.Errorf("%s: negative engine counters", where)
			}
		}
		if rc := row.Recovery; rc != nil {
			if rc.HeapWords < 1 {
				return fmt.Errorf("%s: recovery heap_words %d < 1", where, rc.HeapWords)
			}
			if rc.Workers < 1 {
				return fmt.Errorf("%s: recovery workers %d < 1", where, rc.Workers)
			}
			if rc.ScanNS <= 0 || rc.RebuildNS < 0 {
				return fmt.Errorf("%s: recovery timings not positive (scan %d, rebuild %d)", where, rc.ScanNS, rc.RebuildNS)
			}
			if rc.BlocksRecovered < 0 || rc.Resurrected < 0 {
				return fmt.Errorf("%s: negative recovery block counters", where)
			}
			if rc.Resurrected > rc.BlocksRecovered {
				return fmt.Errorf("%s: resurrected %d > blocks recovered %d", where, rc.Resurrected, rc.BlocksRecovered)
			}
		}
		if n := row.Net; n != nil {
			if n.Conns < 1 {
				return fmt.Errorf("%s: net conns %d < 1", where, n.Conns)
			}
			if n.Mode != "closed" && n.Mode != "open" {
				return fmt.Errorf("%s: net mode %q not closed/open", where, n.Mode)
			}
			if n.NetP50NS < 0 || n.NetP99NS < 0 || n.NetP50NS > n.NetP99NS {
				return fmt.Errorf("%s: net percentiles not ordered (%d, %d)", where, n.NetP50NS, n.NetP99NS)
			}
			if n.AckedApplied < 0 || n.AckedDurable < 0 || n.AckLagEpochs < 0 || n.ProtoErrors < 0 {
				return fmt.Errorf("%s: negative net ack counters", where)
			}
			if s := n.SLO; s != nil {
				for _, pair := range [][2]int64{
					{s.AppliedAckP50NS, s.AppliedAckP99NS},
					{s.DurableAckP50NS, s.DurableAckP99NS},
					{s.AckLagP50NS, s.AckLagP99NS},
					{s.AckLagP50Epochs, s.AckLagP99Epochs},
				} {
					if pair[0] < 0 || pair[0] > pair[1] {
						return fmt.Errorf("%s: slo percentiles not ordered (%d, %d)", where, pair[0], pair[1])
					}
				}
				if s.DurableSamples != n.AckedDurable {
					return fmt.Errorf("%s: slo durable_samples %d != acked_durable %d (histogram not conserved against the ack ledger)",
						where, s.DurableSamples, n.AckedDurable)
				}
				for cause, cnt := range s.AbortCauses {
					if cnt < 0 {
						return fmt.Errorf("%s: negative abort cause %q", where, cause)
					}
				}
			}
		}
	}
	return nil
}

// ValidateReportFile reads and validates one BENCH_*.json file.
func ValidateReportFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return ValidateReport(data)
}
