package bdserve

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"bdhtm/internal/obs"
	"bdhtm/internal/wire"
)

// TestSpanLedgerParity drives a deterministic workload with sampling at
// 1-in-1 and cross-checks three ledgers that must agree: the server's
// ack counters, the SLO histograms, and the per-request spans. Any
// drift between them means an ack was double-counted, a span orphaned,
// or a histogram recorded off the ack path.
func TestSpanLedgerParity(t *testing.T) {
	r := obs.New()
	r.EnableSpans(256, 1)
	srv, addr := startServer(t, Config{KeySpace: 1 << 10, Manual: true, Obs: r})
	c := dial(t, addr)

	const writes, reads = 20, 10
	id := uint64(1)
	for i := 0; i < writes; i++ {
		c.send(wire.Msg{Type: wire.CmdPut, ID: id, Key: uint64(i), Value: uint64(i * 10)})
		if m := c.recv(); m.Type != wire.RespApplied || m.ID != id {
			t.Fatalf("want applied ack for %d, got %+v", id, m)
		}
		// The op has committed (its applied ack proves it); three manual
		// advances push the watermark past its epoch, releasing the
		// durable ack with a bounded lag.
		for a := 0; a < 3; a++ {
			srv.System().AdvanceOnce()
		}
		if m := c.recv(); m.Type != wire.RespDurable || m.ID != id {
			t.Fatalf("want durable ack for %d, got %+v", id, m)
		}
		id++
	}
	for i := 0; i < reads; i++ {
		c.send(wire.Msg{Type: wire.CmdGet, ID: id, Key: uint64(i)})
		if m := c.recv(); m.Type != wire.RespValue || m.ID != id {
			t.Fatalf("want value for %d, got %+v", id, m)
		}
		id++
	}

	// Ledger 1: server counters.
	st := srv.Stats()
	if st.WriteCommits != writes || st.AppliedAcks != writes || st.DurableAcks != writes {
		t.Fatalf("counters: %+v", st)
	}
	if st.Requests != writes+reads {
		t.Fatalf("requests = %d, want %d", st.Requests, writes+reads)
	}
	if st.AckQueue != 0 || st.OldestUnackedNS != 0 {
		t.Fatalf("quiescent server still owes acks: %+v", st)
	}

	// Ledger 2: SLO histograms. Applied-ack latency is recorded once per
	// write's applied ack and once per read response; the durable lanes
	// exactly once per durable ack.
	if n := r.SvcSnapshot(obs.SvcAppliedAckNS).Count; n != writes+reads {
		t.Fatalf("applied-ack hist count = %d, want %d", n, writes+reads)
	}
	for _, h := range []obs.SvcHist{obs.SvcDurableAckNS, obs.SvcAckLagNS, obs.SvcAckLagEpochs} {
		if n := r.SvcSnapshot(h).Count; n != writes {
			t.Fatalf("%s hist count = %d, want %d", h, n, writes)
		}
	}
	if q := r.SvcSnapshot(obs.SvcAckLagEpochs).Quantile(1.0); q > 2 {
		t.Fatalf("ack-lag p100 = %d epochs, exceeds the two-epoch window", q)
	}

	// Ledger 3: spans. Sampling at 1-in-1 with an unfilled ring must have
	// traced every request, finished every trace, and dropped none.
	sampled, dropped, active := r.SpanRing().Counts()
	if sampled != writes+reads || dropped != 0 {
		t.Fatalf("span counts = %d sampled %d dropped, want %d, 0", sampled, dropped, writes+reads)
	}
	if active != 0 {
		t.Fatalf("%d orphan spans still active at quiescence", active)
	}
	spans := r.SpanRing().Spans()
	if len(spans) != writes+reads {
		t.Fatalf("completed spans = %d, want %d", len(spans), writes+reads)
	}
	if err := obs.CheckSpans(spans, obs.SpanCheck{MaxAckLagEpochs: 2}); err != nil {
		t.Fatal(err)
	}
	var wspans, attempts int
	for i := range spans {
		if spans[i].Write {
			wspans++
			attempts += int(spans[i].Attempts())
		}
	}
	if wspans != writes {
		t.Fatalf("write spans = %d, want %d (counter parity broken)", wspans, writes)
	}
	if attempts < writes {
		t.Fatalf("write spans recorded %d HTM attempts total, want >= %d", attempts, writes)
	}

	// The wire STATS snapshot is the same ledger over the protocol.
	c.send(wire.Msg{Type: wire.CmdStats, ID: id})
	m := c.recv()
	if m.Type != wire.RespStats || m.ID != id || m.Stats == nil {
		t.Fatalf("stats response: %+v", m)
	}
	ws := m.Stats
	if ws.WriteCommits != writes || ws.AppliedAcks != writes || ws.DurableAcks != writes {
		t.Fatalf("wire stats ack ledger: %+v", ws)
	}
	if ws.Requests != writes+reads+1 { // the STATS request counts itself
		t.Fatalf("wire stats requests = %d", ws.Requests)
	}
	if ws.SpansSampled != writes+reads || ws.SpansDropped != 0 {
		t.Fatalf("wire stats spans: sampled=%d dropped=%d", ws.SpansSampled, ws.SpansDropped)
	}
	if ws.TxCommits < writes {
		t.Fatalf("wire stats tx commits = %d, want >= %d", ws.TxCommits, writes)
	}
	if ws.PersistedEpoch > ws.GlobalEpoch || ws.GlobalEpoch == 0 {
		t.Fatalf("wire stats epochs: global=%d persisted=%d", ws.GlobalEpoch, ws.PersistedEpoch)
	}
}

// TestStatsFlusherDepthWithoutRecorder: the STATS frame's flusher depth
// comes from the epoch system, so a server running without a recorder
// (bdtop's default target) still reports the hand-off: one closed epoch
// pending after an advance, none once the flusher step has run.
func TestStatsFlusherDepthWithoutRecorder(t *testing.T) {
	srv, addr := startServer(t, Config{KeySpace: 1 << 10, Manual: true})
	c := dial(t, addr)
	id := uint64(0)
	depth := func() uint64 {
		t.Helper()
		id++
		c.send(wire.Msg{Type: wire.CmdStats, ID: id})
		m := c.recv()
		if m.Type != wire.RespStats || m.Stats == nil {
			t.Fatalf("stats response: %+v", m)
		}
		return m.Stats.FlusherDepth
	}
	srv.System().AdvanceOnce()
	if d := depth(); d != 1 {
		t.Fatalf("flusher depth after AdvanceOnce = %d, want 1", d)
	}
	srv.System().FlushOnce()
	if d := depth(); d != 0 {
		t.Fatalf("flusher depth after FlushOnce = %d, want 0", d)
	}
}

// TestServedMetricsCarryAttempts: the recorder a server is configured with
// reaches its TM, so the served /metrics has attempt histograms; each
// request's structure op is timed once, so the op histograms count exactly
// the PUTs, GETs and DELs sent; and the exposition's counters are the
// server's own.
func TestServedMetricsCarryAttempts(t *testing.T) {
	r := obs.New()
	srv, addr := startServer(t, Config{KeySpace: 1 << 10, Manual: true, Obs: r})
	hs, err := obs.StartHTTP("127.0.0.1:0", r, func() any { return srv.WireStats() })
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	c := dial(t, addr)
	const puts, gets, dels = 10, 5, 3
	id := uint64(0)
	exchange := func(req wire.Msg, want wire.Type) {
		t.Helper()
		id++
		req.ID = id
		c.send(req)
		if m := c.recv(); m.Type != want || m.ID != id {
			t.Fatalf("%+v: want reply type %#x, got %+v", req, want, m)
		}
	}
	for i := uint64(1); i <= puts; i++ {
		exchange(wire.Msg{Type: wire.CmdPut, Key: i, Value: i}, wire.RespApplied)
	}
	for i := uint64(1); i <= gets; i++ {
		exchange(wire.Msg{Type: wire.CmdGet, Key: i}, wire.RespValue)
	}
	for i := uint64(1); i <= dels; i++ {
		exchange(wire.Msg{Type: wire.CmdDel, Key: i}, wire.RespApplied)
	}

	resp, err := http.Get("http://" + hs.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintOpenMetrics(body); err != nil {
		t.Fatalf("served /metrics fails lint: %v\n%s", err, body)
	}
	sample := func(name string) int64 {
		t.Helper()
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("served /metrics has no %s sample:\n%s", name, body)
		return 0
	}
	if n := sample(`bdhtm_attempt_latency_ns_count{outcome="commit"}`); n == 0 {
		t.Error("served attempt histogram is empty: the TM has no recorder")
	}
	for op, sent := range map[string]int64{"insert": puts, "lookup": gets, "remove": dels} {
		if n := sample(`bdhtm_op_latency_ns_count{op="` + op + `"}`); n != sent {
			t.Errorf("%s histogram counts %d ops, %d requests sent", op, n, sent)
		}
	}
	if n, want := sample("bdhtm_tx_commits"), srv.TMStats().Commits; n != want {
		t.Errorf("bdhtm_tx_commits = %d, TMStats().Commits = %d", n, want)
	}
}
