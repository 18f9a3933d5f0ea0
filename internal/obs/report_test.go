package obs

import (
	"encoding/json"
	"flag"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedReport builds a fully-populated report with deterministic values,
// the golden reference for the BENCH_*.json schema.
func fixedReport() *Report {
	rep := NewReport(RunConfig{
		KeySpace:   1 << 12,
		DurationNS: 200e6,
		Threads:    []int{1, 2, 4},
		Latency:    true,
	})
	rep.Append(BenchRow{
		Experiment: "fig1",
		Structure:  "PHTM-vEB",
		Threads:    2,
		Dist:       "uniform",
		ReadPct:    20,
		Ops:        100000,
		ElapsedNS:  200e6,
		Mops:       0.5,
		Latency: &LatencySummary{
			Count: 100000, MeanNS: 1800, P50: 1023, P90: 2047, P99: 8191, P999: 16383, Max: 20000,
		},
		HTM: &HTMSummary{
			Attempts: 101000, Commits: 100000, CommitRate: float64(100000) / 101000,
			Aborts: map[string]int64{
				"conflict": 600, "capacity": 100, "explicit": 0, "locked": 200,
				"spurious": 0, "memtype": 100, "persist-op": 0,
			},
			Fallback: map[string]int64{
				"acquires": 150, "lines": 1200, "blocked": 80, "restarts": 2,
			},
		},
		NVM: &NVMSummary{
			Flushes: 5000, Fences: 300, LineWritebacks: 4800,
			MediaWrites: 2000, MediaBytes: 512000, UsefulBytes: 307200,
			WriteAmplification: float64(512000) / 307200,
		},
		Epoch: &EpochSummary{
			Advances: 4, FlushedBlocks: 4800, RetiredBlocks: 900, FreedBlocks: 700,
			Shards: 2, AdvanceP99NS: 1500, Backpressure: 1,
			PerShard: []EpochShardSummary{
				{FlushedBlocks: 2500, RetiredBlocks: 500, FreedBlocks: 400},
				{FlushedBlocks: 2300, RetiredBlocks: 400, FreedBlocks: 300},
			},
		},
		Net: &NetSummary{
			Conns: 4, Mode: "closed",
			NetP50NS: 25000, NetP99NS: 180000,
			AckedApplied: 40000, AckedDurable: 40000, AckLagEpochs: 2,
			SLO: &NetSLO{
				AppliedAckP50NS: 9000, AppliedAckP99NS: 60000,
				DurableAckP50NS: 2100000, DurableAckP99NS: 4400000,
				AckLagP50NS: 2000000, AckLagP99NS: 4200000,
				AckLagP50Epochs: 1, AckLagP99Epochs: 2,
				DurableSamples: 40000,
				AbortCauses:    map[string]int64{"conflict": 180, "capacity": 3},
			},
		},
		Recovery: &RecoverySummary{
			HeapWords: 1 << 21, Workers: 4,
			ScanNS: 1200000, RebuildNS: 800000,
			BlocksRecovered: 40000, Resurrected: 120,
		},
	})
	rep.Append(BenchRow{
		Experiment: "fig1",
		Structure:  "HTM-vEB",
		Threads:    2,
		Dist:       "uniform",
		ReadPct:    20,
		Ops:        400000,
		ElapsedNS:  200e6,
		Mops:       2.0,
		// A transient structure: no NVM/epoch sections, idle-free HTM.
		HTM: &HTMSummary{Attempts: 0, Commits: 0, CommitRate: 1, Aborts: map[string]int64{}},
	})
	return rep
}

// TestReportGolden locks the serialized schema byte-for-byte: field
// names, ordering, and number formatting are the contract downstream
// tooling parses.
func TestReportGolden(t *testing.T) {
	data, err := fixedReport().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "report.golden.json", data)
	if err := ValidateReport(data); err != nil {
		t.Fatalf("golden report does not validate: %v", err)
	}
}

// TestReportFieldNames pins the top-level and per-row JSON keys by name,
// independent of formatting.
func TestReportFieldNames(t *testing.T) {
	data, err := fixedReport().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"schema", "config", "results"} {
		if _, ok := top[k]; !ok {
			t.Errorf("missing top-level key %q", k)
		}
	}
	var rows []map[string]json.RawMessage
	if err := json.Unmarshal(top["results"], &rows); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"experiment", "structure", "threads", "dist", "read_pct",
		"ops", "elapsed_ns", "mops_per_sec", "latency_ns", "htm", "nvm", "epoch",
	} {
		if _, ok := rows[0][k]; !ok {
			t.Errorf("missing row key %q", k)
		}
	}
	// Optional sections must be omitted, not nulled, when absent.
	for _, k := range []string{"latency_ns", "nvm", "epoch"} {
		if _, ok := rows[1][k]; ok {
			t.Errorf("transient row carries %q section", k)
		}
	}
}

func TestValidateReportRejects(t *testing.T) {
	base := func() *Report { return fixedReport() }
	mutate := []struct {
		name string
		edit func(r *Report)
		want string
	}{
		{"wrong schema", func(r *Report) { r.Schema = "bdhtm-bench/v0" }, "schema"},
		{"no results", func(r *Report) { r.Results = nil }, "no results"},
		{"empty structure", func(r *Report) { r.Results[0].Structure = "" }, "empty experiment or structure"},
		{"zero threads", func(r *Report) { r.Results[0].Threads = 0 }, "threads"},
		{"zero elapsed", func(r *Report) { r.Results[0].ElapsedNS = 0 }, "ops/elapsed/mops"},
		{"percentile inversion", func(r *Report) { r.Results[0].Latency.P90 = r.Results[0].Latency.P99 + 1 }, "not monotonic"},
		{"attempts mismatch", func(r *Report) { r.Results[0].HTM.Attempts++ }, "attempts"},
		{"commit rate range", func(r *Report) { r.Results[0].HTM.CommitRate = 1.5 }, "commit rate"},
		{"negative fallback counter", func(r *Report) { r.Results[0].HTM.Fallback["restarts"] = -1 }, "fallback counter"},
		{"fallback lines < acquires", func(r *Report) { r.Results[0].HTM.Fallback["lines"] = 10 }, "fallback lines"},
		{"fallback row missing latency", func(r *Report) {
			r.Results[1].Experiment = "fallback"
			r.Results[1].Latency = nil
		}, "fallback rows require"},
		{"useful > media", func(r *Report) { r.Results[0].NVM.UsefulBytes = r.Results[0].NVM.MediaBytes + 1 }, "useful bytes"},
		{"amplification < 1", func(r *Report) { r.Results[0].NVM.WriteAmplification = 0.5 }, "write amplification"},
		{"freed > retired", func(r *Report) { r.Results[0].Epoch.FreedBlocks = r.Results[0].Epoch.RetiredBlocks + 1 }, "freed blocks"},
		{"negative pipeline field", func(r *Report) { r.Results[0].Epoch.Backpressure = -1 }, "pipeline"},
		{"per_shard count mismatch", func(r *Report) { r.Results[0].Epoch.Shards = 3 }, "per_shard has"},
		{"per_shard sums mismatch", func(r *Report) { r.Results[0].Epoch.PerShard[0].FlushedBlocks++ }, "per_shard sums"},
		{"per_shard freed > retired", func(r *Report) {
			ps := r.Results[0].Epoch.PerShard
			ps[0].FreedBlocks = ps[0].RetiredBlocks + 1
		}, "per_shard[0] freed"},
		{"recovery zero workers", func(r *Report) { r.Results[0].Recovery.Workers = 0 }, "recovery workers"},
		{"recovery zero heap", func(r *Report) { r.Results[0].Recovery.HeapWords = 0 }, "recovery heap_words"},
		{"recovery zero scan time", func(r *Report) { r.Results[0].Recovery.ScanNS = 0 }, "recovery timings"},
		{"recovery resurrected > recovered", func(r *Report) {
			r.Results[0].Recovery.Resurrected = r.Results[0].Recovery.BlocksRecovered + 1
		}, "resurrected"},
		{"net zero conns", func(r *Report) { r.Results[0].Net.Conns = 0 }, "net conns"},
		{"net bad mode", func(r *Report) { r.Results[0].Net.Mode = "burst" }, "net mode"},
		{"net percentile inversion", func(r *Report) { r.Results[0].Net.NetP50NS = r.Results[0].Net.NetP99NS + 1 }, "net percentiles"},
		{"net negative acks", func(r *Report) { r.Results[0].Net.AckedDurable = -1 }, "net ack"},
		{"slo percentile inversion", func(r *Report) {
			r.Results[0].Net.SLO.AckLagP50NS = r.Results[0].Net.SLO.AckLagP99NS + 1
		}, "slo percentiles"},
		{"slo epoch percentile inversion", func(r *Report) {
			r.Results[0].Net.SLO.AckLagP50Epochs = 3
		}, "slo percentiles"},
		{"slo samples not conserved", func(r *Report) { r.Results[0].Net.SLO.DurableSamples++ }, "conserved"},
		{"slo negative abort cause", func(r *Report) { r.Results[0].Net.SLO.AbortCauses["conflict"] = -1 }, "abort cause"},
	}
	for _, m := range mutate {
		t.Run(m.name, func(t *testing.T) {
			r := base()
			m.edit(r)
			data, err := r.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			err = ValidateReport(data)
			if err == nil {
				t.Fatalf("validator accepted report with %s", m.name)
			}
			if !strings.Contains(err.Error(), m.want) {
				t.Fatalf("error %q does not mention %q", err, m.want)
			}
		})
	}
}

func TestValidateReportUnknownField(t *testing.T) {
	data, err := fixedReport().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), `"schema"`, `"bogus_extra": 1, "schema"`, 1)
	if err := ValidateReport([]byte(bad)); err == nil {
		t.Fatal("validator accepted unknown top-level field")
	}
}

func TestWriteFileRefusesInvalid(t *testing.T) {
	r := fixedReport()
	r.Results[0].HTM.Attempts++ // break the attempts invariant
	path := t.TempDir() + "/bad.json"
	if err := r.WriteFile(path); err == nil {
		t.Fatal("WriteFile wrote a schema-invalid report")
	}
}

func TestWriteAndValidateFile(t *testing.T) {
	path := t.TempDir() + "/BENCH_test.json"
	if err := fixedReport().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReportFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestLatencySummaryFromHist(t *testing.T) {
	var h Hist
	for i := 0; i < 99; i++ {
		h.Record(uint64(i), 100) // bucket upper 127
	}
	h.Record(7, 100000)
	var l LatencySummary
	l.FromHist(h.Snapshot())
	if l.Count != 100 {
		t.Errorf("count = %d", l.Count)
	}
	if l.P50 != 127 {
		t.Errorf("p50 = %d, want 127", l.P50)
	}
	if l.Max != 100000 || l.P999 != 100000 {
		t.Errorf("tail = p999 %d / max %d, want 100000", l.P999, l.Max)
	}
	if !(l.P50 <= l.P90 && l.P90 <= l.P99 && l.P99 <= l.P999 && l.P999 <= l.Max) {
		t.Errorf("percentiles not monotonic: %+v", l)
	}
	if l.MeanNS != (99*100+100000)/100.0 {
		t.Errorf("mean = %f", l.MeanNS)
	}
}
