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

// fakeClock is a hand-cranked monotone clock for deterministic stamps.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { c.t++; return c.t }

// TestSamplingDeterministic: the sampling decision depends only on the
// request ID and rate — two rings at the same rate trace the same IDs,
// and the rate is honored within rounding on a dense ID range.
func TestSamplingDeterministic(t *testing.T) {
	a := NewSpanRing(8, 16)
	b := NewSpanRing(1024, 16)
	hits := 0
	for id := uint64(0); id < 100000; id++ {
		sa, sb := a.Sampled(id), b.Sampled(id)
		if sa != sb {
			t.Fatalf("id %d: rings at same rate disagree (%v vs %v)", id, sa, sb)
		}
		if sa {
			hits++
		}
	}
	// splitmix64 is well mixed: expect ~1/16 of 100k = 6250, allow wide slack.
	if hits < 5000 || hits > 7500 {
		t.Fatalf("1-in-16 sampling hit %d of 100000 ids", hits)
	}
	every1 := NewSpanRing(8, 1)
	for id := uint64(0); id < 100; id++ {
		if !every1.Sampled(id) {
			t.Fatalf("every=1 must sample all ids, missed %d", id)
		}
	}
}

// TestRingWrapDrops: wrapping onto a still-active slot drops the new
// sample instead of corrupting the live span; done slots are recycled.
func TestRingWrapDrops(t *testing.T) {
	clk := &fakeClock{}
	sr := NewSpanRing(2, 1)
	s1 := sr.sample(1, 0, 0, clk.now())
	s2 := sr.sample(2, 0, 0, clk.now())
	if s1 == nil || s2 == nil {
		t.Fatal("first two samples must claim slots")
	}
	if sp := sr.sample(3, 0, 0, clk.now()); sp != nil {
		t.Fatal("sample onto a full ring of active spans must drop")
	}
	if _, dropped, active := sr.Counts(); dropped != 1 || active != 2 {
		t.Fatalf("Counts after wrap-drop: dropped=%d active=%d, want 1, 2", dropped, active)
	}
	s1.Finish()
	// The cursor keeps advancing, so the next claim may land on either
	// slot; only the freed one is claimable.
	got := 0
	for id := uint64(4); id < 6; id++ {
		if sp := sr.sample(id, 0, 0, clk.now()); sp != nil {
			got++
		}
	}
	if got != 1 {
		t.Fatalf("recycled %d slots after one Finish, want 1", got)
	}
	sampled, _, _ := sr.Counts()
	if sampled != 3 {
		t.Fatalf("sampled=%d, want 3", sampled)
	}
}

// completeWriteSpan builds a valid finished write span on the fake clock.
func completeWriteSpan(clk *fakeClock, reqID uint64) Span {
	var sp Span
	sp.ReqID = reqID
	sp.Write = true
	sp.OK = true
	sp.CommitEpoch = 5
	sp.DurableEpoch = 6
	sp.Outcomes[OutCommit] = 1
	for p := SpanDecode; p < NumSpanPhases; p++ {
		sp.Phase[p] = clk.now()
	}
	return sp
}

func completeReadSpan(clk *fakeClock, reqID uint64) Span {
	var sp Span
	sp.ReqID = reqID
	sp.OK = true
	for p := SpanDecode; p <= SpanApplied; p++ {
		sp.Phase[p] = clk.now()
	}
	return sp
}

func TestCheckSpansAccepts(t *testing.T) {
	clk := &fakeClock{}
	spans := []Span{completeWriteSpan(clk, 1), completeReadSpan(clk, 2)}
	if err := CheckSpans(spans, SpanCheck{MaxAckLagEpochs: 2}); err != nil {
		t.Fatalf("valid spans rejected: %v", err)
	}
}

func TestCheckSpansRejects(t *testing.T) {
	cases := []struct {
		name string
		edit func(sp *Span)
		want string
	}{
		{"unstamped-phase", func(sp *Span) { sp.Phase[SpanFlush] = 0 }, "unstamped"},
		{"non-monotone", func(sp *Span) { sp.Phase[SpanCommit] = sp.Phase[SpanDurable] + 10 }, "precedes"},
		{"no-attempts", func(sp *Span) { sp.Outcomes = [NumOutcomes]uint32{} }, "no HTM attempts"},
		{"no-commit-epoch", func(sp *Span) { sp.CommitEpoch = 0 }, "no commit epoch"},
		{"durable-before-commit-epoch", func(sp *Span) { sp.DurableEpoch = sp.CommitEpoch - 1 }, "durable epoch"},
		{"lag-bound", func(sp *Span) { sp.DurableEpoch = sp.CommitEpoch + 3 }, "exceeds bound"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clk := &fakeClock{}
			sp := completeWriteSpan(clk, 7)
			c.edit(&sp)
			err := CheckSpans([]Span{sp}, SpanCheck{MaxAckLagEpochs: 2})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want error containing %q, got %v", c.want, err)
			}
		})
	}
	// A read span must never enter the durability phases.
	clk := &fakeClock{}
	sp := completeReadSpan(clk, 9)
	sp.Phase[SpanDurable] = clk.now()
	if err := CheckSpans([]Span{sp}, SpanCheck{MaxAckLagEpochs: 2}); err == nil ||
		!strings.Contains(err.Error(), "durability phase") {
		t.Fatalf("read span with durable stamp not rejected: %v", err)
	}
}

// TestSpanLifecycleThroughRecorder drives the Recorder-level API the way
// the service does: enable, sample, stamp, finish, export.
func TestSpanLifecycleThroughRecorder(t *testing.T) {
	clk := &fakeClock{}
	r := NewWithClock(clk.now)
	if sp := r.SampleSpan(1, 0, 1); sp != nil {
		t.Fatal("SampleSpan must return nil before EnableSpans")
	}
	r.EnableSpans(16, 1)
	sp := r.SampleSpan(1, 3, 2)
	if sp == nil {
		t.Fatal("SampleSpan returned nil with every=1")
	}
	if sp.Phase[SpanDecode] == 0 {
		t.Fatal("sample must stamp decode")
	}
	sp.Write = true
	sp.OK = true
	sp.CommitEpoch = 2
	sp.DurableEpoch = 2
	sp.RecordAttempt(OutCommit)
	for p := SpanExec; p < NumSpanPhases; p++ {
		sp.Stamp(p, r.Now())
	}
	sp.Finish()

	spans := r.SpanRing().Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d completed spans, want 1", len(spans))
	}
	if err := CheckSpans(spans, SpanCheck{MaxAckLagEpochs: 2}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(evs) != int(NumSpanPhases) {
		t.Fatalf("got %d span events, want %d", len(evs), NumSpanPhases)
	}
	for i, ev := range evs {
		if ev.Name != "span."+SpanPhase(i).String() || ev.Args.A2 != 1 {
			t.Fatalf("event %d: name=%s a2=%d", i, ev.Name, ev.Args.A2)
		}
		if i > 0 && ev.TS < evs[i-1].TS {
			t.Fatalf("span events not time-ordered at %d", i)
		}
	}

	buf.Reset()
	if err := WriteSpansJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if strings.Count(line, "\n") != 1 {
		t.Fatalf("want one JSONL line, got %q", line)
	}
	for _, frag := range []string{`"req_id":1`, `"write":true`, `"commit_epoch":2`, `"commit":1`, `"decode":`} {
		if !strings.Contains(line, frag) {
			t.Fatalf("JSONL missing %s: %s", frag, line)
		}
	}

	if sampled, dropped, _ := r.SpanRing().Counts(); sampled != 1 || dropped != 0 {
		t.Fatalf("span counts = %d, %d, want 1, 0", sampled, dropped)
	}
}

// TestSpanNilSafety: the nil span is a valid no-op carrier through every
// pipeline stage.
func TestSpanNilSafety(t *testing.T) {
	var sp *Span
	sp.Stamp(SpanCommit, 1)
	sp.RecordAttempt(OutCommit)
	sp.Finish()
	var r *Recorder
	if got := r.SampleSpan(1, 0, 1); got != nil {
		t.Fatal("nil recorder sampled a span")
	}
	var sr *SpanRing
	if sr.Spans() != nil {
		t.Fatal("nil ring returned spans")
	}
}

// chromeEvent is the decoded shape of one exported trace event.
type chromeEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	S    string   `json:"s"`
	TS   float64  `json:"ts"`
	Dur  *float64 `json:"dur"`
	Args struct {
		A1 uint64 `json:"a1"`
		A2 uint64 `json:"a2"`
	} `json:"args"`
}

// fixedSpans is a deterministic span set covering every export shape:
// a write and a read whose phases interleave in time, the write with
// its flush phase skipped, on a connection lane past the shard mask.
func fixedSpans() []Span {
	w := Span{ReqID: 0x11, Conn: 2, Op: 3, Write: true, OK: true, CommitEpoch: 7, DurableEpoch: 8}
	w.Outcomes[OutCommit] = 1
	w.Outcomes[OutConflict] = 1
	w.Phase = [NumSpanPhases]int64{1000, 1100, 1500, 1600, 0, 52000}
	r := Span{ReqID: 0x22, Conn: 35, Op: 1, OK: true}
	r.Outcomes[OutCommit] = 1
	r.Phase = [NumSpanPhases]int64{1200, 1300, 1400, 1450, 0, 0}
	return []Span{w, r}
}

// TestChromeTraceGolden locks the exporter's byte-exact output: field
// names, event phases, and µs timestamp formatting are a contract with
// chrome://tracing / Perfetto and with downstream tooling.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixedSpans()); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "chrome_trace.golden.json", buf.Bytes())

	// Beyond byte equality: a valid JSON array, one event per stamped
	// phase, timestamps monotone overall and each request's phases in
	// phase order.
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if len(evs) != 9 {
		t.Fatalf("got %d JSON events, want 9 (5 write phases, 4 read)", len(evs))
	}
	last := -1.0
	lastPhase := map[uint64]uint64{}
	for i, e := range evs {
		if e.Name != "span."+SpanPhase(e.Args.A1).String() {
			t.Fatalf("event %d: name %q for phase %d", i, e.Name, e.Args.A1)
		}
		if e.TS < last {
			t.Fatalf("timestamps not monotonic at event %d", i)
		}
		last = e.TS
		if p, ok := lastPhase[e.Args.A2]; ok && e.Args.A1 <= p {
			t.Fatalf("event %d: request %#x phase %d after phase %d", i, e.Args.A2, e.Args.A1, p)
		}
		lastPhase[e.Args.A2] = e.Args.A1
		if e.Args.A1 == uint64(SpanFlush) {
			t.Fatalf("event %d: unstamped flush phase exported", i)
		}
		switch e.Ph {
		case "X":
			if e.Dur == nil || *e.Dur <= 0 {
				t.Fatalf("complete event %d has no positive dur", i)
			}
		case "i":
			if e.S != "t" {
				t.Fatalf("instant event %d missing thread scope", i)
			}
		default:
			t.Fatalf("event %d has unexpected phase %q", i, e.Ph)
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
