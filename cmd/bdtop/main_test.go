package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"bdhtm/internal/bdserve"
	"bdhtm/internal/obs"
	"bdhtm/internal/wire"
)

// TestFetchAndRender drives the dashboard's poll/render path against an
// in-process bdserve: one write round-tripped to durable, then two STATS
// polls, rendering both the first-frame (totals) and steady-state
// (rates + sparkline) layouts.
func TestFetchAndRender(t *testing.T) {
	r := obs.New()
	r.EnableSpans(64, 1)
	srv := bdserve.New(bdserve.Config{KeySpace: 1 << 10, Manual: true, Obs: r})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One durable write so the counters are non-trivial.
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cw, cr := wire.NewWriter(nc), wire.NewReader(nc)
	if err := cw.Write(&wire.Msg{Type: wire.CmdPut, ID: 1, Key: 7, Value: 70}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if m, err := cr.Read(); err != nil || m.Type != wire.RespApplied {
		t.Fatalf("applied ack: %v %+v", err, m)
	}
	for i := 0; i < 3; i++ {
		srv.System().AdvanceOnce()
	}
	if m, err := cr.Read(); err != nil || m.Type != wire.RespDurable {
		t.Fatalf("durable ack: %v %+v", err, m)
	}

	tnc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tnc.Close()
	cl := &statsClient{r: wire.NewReader(tnc), w: wire.NewWriter(tnc), nc: tnc}

	st, err := cl.fetch()
	if err != nil {
		t.Fatal(err)
	}
	if st.WriteCommits != 1 || st.DurableAcks != 1 {
		t.Fatalf("ledger: commits %d durable %d, want 1/1", st.WriteCommits, st.DurableAcks)
	}
	if st.SpansSampled != 1 {
		t.Fatalf("spans sampled = %d, want 1", st.SpansSampled)
	}

	// First frame: -once layout, totals instead of rates.
	var b strings.Builder
	render(&b, addr.String(), st, nil, 0, nil, false)
	out := b.String()
	for _, want := range []string{"bdtop —", "epochs", "watermark", "totals", "htm", "aborts", "spans"} {
		if !strings.Contains(out, want) {
			t.Errorf("once frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "^C to quit") || strings.Contains(out, "req/s") {
		t.Errorf("once frame carries live-mode elements:\n%s", out)
	}

	// Second frame: live layout with rates diffed against the first poll.
	st2, err := cl.fetch()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Requests <= st.Requests {
		t.Fatalf("request counter not monotone across polls: %d then %d", st.Requests, st2.Requests)
	}
	b.Reset()
	render(&b, addr.String(), st2, st, time.Second, []float64{0, 1, 4, 2}, true)
	out = b.String()
	for _, want := range []string{"req/s", "durable-ack/s", "oldest-unacked (ms)", "^C to quit"} {
		if !strings.Contains(out, want) {
			t.Errorf("live frame missing %q:\n%s", want, out)
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 4); got != "    " {
		t.Errorf("empty sparkline = %q", got)
	}
	got := sparkline([]float64{0, 1, 2, 4}, 4)
	if []rune(got)[0] != '▁' || []rune(got)[3] != '█' {
		t.Errorf("sparkline scaling off: %q", got)
	}
	// Flat-zero windows stay on the lowest cell.
	if got := sparkline([]float64{0, 0}, 2); got != "▁▁" {
		t.Errorf("flat-zero sparkline = %q", got)
	}
	// Longer history than width keeps the most recent cells.
	if got := sparkline([]float64{9, 0, 0}, 2); got != "▁▁" {
		t.Errorf("truncated sparkline = %q", got)
	}
}

func TestBarAndRates(t *testing.T) {
	if got := bar(0, 0, 4); got != "[....]" {
		t.Errorf("empty bar = %q", got)
	}
	if got := bar(2, 4, 4); got != "[##..]" {
		t.Errorf("half bar = %q", got)
	}
	if got := bar(9, 4, 4); got != "[####]" {
		t.Errorf("overfull bar = %q", got)
	}
	if r := rate(150, 100, time.Second); r != 50 {
		t.Errorf("rate = %f", r)
	}
	if r := rate(100, 150, time.Second); r != 0 {
		t.Errorf("rate on counter reset = %f", r)
	}
	if p := pct(1, 4); p != 25 {
		t.Errorf("pct = %f", p)
	}
	if p := pct(1, 0); p != 0 {
		t.Errorf("pct div-zero = %f", p)
	}
}
