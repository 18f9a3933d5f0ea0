package obs

import (
	"bytes"
	"strings"
	"testing"
)

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

	evs := SpanEvents(spans)
	if len(evs) != int(NumSpanPhases) {
		t.Fatalf("got %d span events, want %d", len(evs), NumSpanPhases)
	}
	for i, ev := range evs {
		if ev.Kind != EvSpanPhase || ev.Arg2 != 1 {
			t.Fatalf("event %d: kind=%v arg2=%d", i, ev.Kind, ev.Arg2)
		}
		if i > 0 && ev.TS < evs[i-1].TS {
			t.Fatalf("span events not time-ordered at %d", i)
		}
	}

	var buf bytes.Buffer
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

	r.DisableSpans()
	if sp := r.SampleSpan(2, 0, 1); sp != nil {
		t.Fatal("SampleSpan must return nil after DisableSpans")
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
