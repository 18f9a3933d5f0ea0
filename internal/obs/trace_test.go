package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedEvents is a deterministic event set covering every export shape:
// duration events (op/attempt/epoch-phase, with name refinement) and
// instant events (flush/advance/crash).
func fixedEvents() []Event {
	return []Event{
		{TS: 1000, Dur: 250, Kind: EvOp, Shard: 0, Arg1: uint64(OpInsert)},
		{TS: 1100, Dur: 50, Kind: EvAttempt, Shard: 1, Arg1: uint64(OutMemType)},
		{TS: 1500, Kind: EvFlush, Shard: 2, Arg1: 4096},
		{TS: 2000, Dur: 900, Kind: EvEpochPhase, Shard: 3, Arg1: uint64(PhaseFlush), Arg2: 7},
		{TS: 3000, Kind: EvAdvance, Shard: 4, Arg1: 8},
		{TS: 3500, Kind: EvCrash, Shard: 5, Arg1: 1},
	}
}

func TestTracerEmitAndOrder(t *testing.T) {
	tr := newTracer(256)
	// Emit out of timestamp order onto different shards.
	tr.emit(Event{TS: 30, Kind: EvFence, Shard: 2})
	tr.emit(Event{TS: 10, Kind: EvFlush, Shard: 0})
	tr.emit(Event{TS: 20, Kind: EvFlush, Shard: 1})
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events not sorted: %v", evs)
		}
	}
	kept, dropped := tr.Counts()
	if kept != 3 || dropped != 0 {
		t.Fatalf("counts = %d/%d, want 3/0", kept, dropped)
	}
}

func TestTracerRingOverwrite(t *testing.T) {
	tr := newTracer(1) // rounds up to 16 per shard
	const emitted = 100
	for i := 0; i < emitted; i++ {
		tr.emit(Event{TS: int64(i), Kind: EvFlush, Shard: 3}) // all on one shard
	}
	kept, dropped := tr.Counts()
	if kept != 16 {
		t.Fatalf("retained %d, want ring capacity 16", kept)
	}
	if dropped != emitted-16 {
		t.Fatalf("dropped %d, want %d", dropped, emitted-16)
	}
	// The ring keeps the newest events.
	for _, e := range tr.Events() {
		if e.TS < emitted-16 {
			t.Fatalf("stale event survived overwrite: ts=%d", e.TS)
		}
	}
}

func TestNilTracerReads(t *testing.T) {
	var tr *Tracer
	if evs := tr.Events(); evs != nil {
		t.Errorf("nil Events = %v", evs)
	}
	if k, d := tr.Counts(); k != 0 || d != 0 {
		t.Errorf("nil Counts = %d/%d", k, d)
	}
}

func TestRecorderTraceLifecycle(t *testing.T) {
	r, _ := scripted(10)
	// No tracer: recording works, nothing is captured.
	r.Hit(EvFlush, 1, 0)
	tr := r.StartTrace(64)
	r.EndOp(OpInsert, 0, r.Now())
	r.Hit(EvAdvance, 0, 3)
	got := r.StopTrace()
	if got != tr {
		t.Fatalf("StopTrace returned a different tracer")
	}
	if r.Tracer() != nil {
		t.Fatalf("tracer still attached after StopTrace")
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("captured %d events, want 2 (one op, one advance)", len(evs))
	}
	// Recording after stop is dropped, not a panic.
	r.Hit(EvFence, 0, 0)
	if k, _ := tr.Counts(); k != 2 {
		t.Fatalf("events leaked into detached tracer: %d", k)
	}
}

// TestChromeTraceGolden locks the exporter's byte-exact output: field
// names, event phases, and µs timestamp formatting are a contract with
// chrome://tracing / Perfetto and with downstream tooling.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixedEvents()); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "chrome_trace.golden.json", buf.Bytes())

	// Beyond byte equality: the output must be a valid JSON array with
	// monotonic timestamps and the stable field set.
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if len(evs) != len(fixedEvents()) {
		t.Fatalf("got %d JSON events, want %d", len(evs), len(fixedEvents()))
	}
	last := -1.0
	for i, e := range evs {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid", "args"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("event %d missing field %q: %v", i, field, e)
			}
		}
		ts := e["ts"].(float64)
		if ts < last {
			t.Fatalf("timestamps not monotonic at event %d", i)
		}
		last = ts
		switch ph := e["ph"].(string); ph {
		case "X":
			if _, ok := e["dur"]; !ok {
				t.Fatalf("complete event %d missing dur", i)
			}
		case "i":
			if e["s"] != "t" {
				t.Fatalf("instant event %d missing thread scope", i)
			}
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ph)
		}
	}
	if evs[0]["name"] != "op.insert" || evs[1]["name"] != "attempt.memtype" || evs[3]["name"] != "epoch.flush" {
		t.Fatalf("refined event names wrong: %v %v %v", evs[0]["name"], evs[1]["name"], evs[3]["name"])
	}
}

func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, fixedEvents()); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "trace.golden.jsonl", buf.Bytes())

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(fixedEvents()) {
		t.Fatalf("got %d lines, want %d", len(lines), len(fixedEvents()))
	}
	for i, line := range lines {
		var obj struct {
			TS    int64  `json:"ts_ns"`
			Dur   int64  `json:"dur_ns"`
			Kind  string `json:"kind"`
			Shard int    `json:"shard"`
			A1    uint64 `json:"a1"`
			A2    uint64 `json:"a2"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if obj.TS != fixedEvents()[i].TS {
			t.Fatalf("line %d ts = %d, want %d", i, obj.TS, fixedEvents()[i].TS)
		}
	}
}

// compareGolden diffs got against testdata/name, rewriting the file when
// the test is run with -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s (regenerate with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}
