package loadgen

import (
	"net"
	"testing"
	"time"

	"bdhtm/internal/bdserve"
	"bdhtm/internal/wire"
	"bdhtm/internal/ycsb"
)

// TestPlanDeterminism: the op stream and request-ID sequence are a pure
// function of (seed, conn) — identical across repeated calls and across
// pipeline windows, which is what makes server bugs replayable.
func TestPlanDeterminism(t *testing.T) {
	narrow := Config{Conns: 3, Ops: 500, Workload: "A", KeySpace: 1 << 10, Seed: 42, Pipeline: 4}
	wide := narrow
	wide.Pipeline = 32

	for conn := 0; conn < 3; conn++ {
		a, err := Plan(narrow, conn)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Plan(wide, conn)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Plan(narrow, conn)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != 500 {
			t.Fatalf("plan length %d", len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("conn %d op %d differs across windows: %+v vs %+v", conn, i, a[i], b[i])
			}
			if a[i] != c[i] {
				t.Fatalf("conn %d op %d differs across calls: %+v vs %+v", conn, i, a[i], c[i])
			}
			if want := OpID(conn, i); a[i].ID != want {
				t.Fatalf("conn %d op %d: ID %#x, want %#x", conn, i, a[i].ID, want)
			}
		}
	}

	// Different seeds and different conns must diverge.
	d, _ := Plan(narrow, 0)
	shifted := narrow
	shifted.Seed = 43
	e, _ := Plan(shifted, 0)
	same := 0
	for i := range d {
		if d[i].Key == e[i].Key {
			same++
		}
	}
	if same > len(d)/10 {
		t.Fatalf("seeds 42 and 43 shared %d/%d keys", same, len(d))
	}
}

// TestPlanWorkloadE: scan ops flow through the plan with their lengths,
// and the write remainder is insert-only.
func TestPlanWorkloadE(t *testing.T) {
	cfg := Config{Conns: 1, Ops: 2000, Workload: "E", KeySpace: 1 << 10, Seed: 7}
	ops, err := Plan(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var scans, inserts, other int
	for _, o := range ops {
		switch o.Kind {
		case ycsb.OpScan:
			scans++
			if o.Scan < 1 || o.Scan > ycsb.MaxScanLen {
				t.Fatalf("scan length %d out of range", o.Scan)
			}
		case ycsb.OpInsert:
			inserts++
			if o.Value == 0 {
				t.Fatal("insert op with empty value")
			}
		default:
			other++
		}
	}
	if other != 0 {
		t.Fatalf("workload E planned %d non-scan non-insert ops", other)
	}
	if f := float64(scans) / float64(len(ops)); f < 0.9 {
		t.Fatalf("scan fraction %.2f, want ~0.95", f)
	}
	if inserts == 0 {
		t.Fatal("no inserts planned")
	}
}

func TestPlanUnknownWorkload(t *testing.T) {
	if _, err := Plan(Config{Workload: "Z"}, 0); err == nil {
		t.Fatal("Plan accepted unknown workload")
	}
	if _, err := Run(Config{Workload: "Z"}); err == nil {
		t.Fatal("Run accepted unknown workload")
	}
}

// runAgainstServer is the end-to-end smoke shared by the run tests:
// every planned op must complete with a balanced ack ledger.
func runAgainstServer(t *testing.T, sync bool, workload string) (Result, *bdserve.Server) {
	t.Helper()
	srv := bdserve.New(bdserve.Config{
		KeySpace:    1 << 10,
		EpochLength: 2 * time.Millisecond,
		SyncAcks:    sync,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	res, err := Run(Config{
		Addr:     addr.String(),
		Conns:    2,
		Ops:      300,
		Pipeline: 8,
		Workload: workload,
		KeySpace: 1 << 10,
		Seed:     1,
		SyncAcks: sync,
		Timeout:  60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, srv
}

func TestRunClosedLoop(t *testing.T) {
	res, srv := runAgainstServer(t, false, "A")
	if res.Ops != 600 {
		t.Fatalf("completed %d/600 ops", res.Ops)
	}
	if res.DupAcks != 0 || res.Errors != 0 {
		t.Fatalf("dup acks %d, errors %d", res.DupAcks, res.Errors)
	}
	if res.Writes == 0 || res.Reads == 0 {
		t.Fatalf("degenerate workload A split: %d reads, %d writes", res.Reads, res.Writes)
	}
	if res.DurableAcks != res.Writes || res.AppliedAcks != res.Writes {
		t.Fatalf("ack ledger: applied %d durable %d writes %d", res.AppliedAcks, res.DurableAcks, res.Writes)
	}
	if res.NetP50NS <= 0 || res.NetP99NS < res.NetP50NS {
		t.Fatalf("latency summary out of order: p50 %d p99 %d", res.NetP50NS, res.NetP99NS)
	}
	st := srv.Stats()
	if st.DurableAcks != res.DurableAcks || st.AppliedAcks != res.AppliedAcks {
		t.Fatalf("server/client ack ledgers differ: server %+v client %+v", st, res)
	}
}

func TestRunSyncMode(t *testing.T) {
	res, srv := runAgainstServer(t, true, "A")
	if res.Ops != 600 {
		t.Fatalf("completed %d/600 ops", res.Ops)
	}
	if res.AppliedAcks != 0 {
		t.Fatalf("sync mode saw %d applied acks", res.AppliedAcks)
	}
	if res.DurableAcks != res.Writes || res.DupAcks != 0 {
		t.Fatalf("sync ack ledger: durable %d writes %d dups %d", res.DurableAcks, res.Writes, res.DupAcks)
	}
	if st := srv.Stats(); st.AppliedAcks != 0 {
		t.Fatalf("server emitted %d applied acks in sync mode", st.AppliedAcks)
	}
}

func TestRunScanWorkload(t *testing.T) {
	res, _ := runAgainstServer(t, false, "E")
	if res.Ops != 600 {
		t.Fatalf("completed %d/600 ops", res.Ops)
	}
	if res.Scans == 0 {
		t.Fatal("workload E produced no scans over the wire")
	}
	if res.DupAcks != 0 || res.Errors != 0 {
		t.Fatalf("dup acks %d, errors %d", res.DupAcks, res.Errors)
	}
}

// TestRunFailsFastAtCapacity: a connection refused for capacity gets the
// server's ID-0 error frame; the run must surface that as an error
// immediately instead of spinning until the deadline waiting for final
// acks that can never arrive.
func TestRunFailsFastAtCapacity(t *testing.T) {
	srv := bdserve.New(bdserve.Config{KeySpace: 1 << 10, EpochLength: time.Millisecond, MaxSessions: 1})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	// Occupy the only session: one round-tripped op guarantees the
	// connection is registered before the load generator dials.
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	w := wire.NewWriter(nc)
	r := wire.NewReader(nc)
	if err := w.Write(&wire.Msg{Type: wire.CmdGet, ID: 1, Key: 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = Run(Config{
		Addr:     addr.String(),
		Conns:    1,
		Ops:      50,
		Workload: "A",
		KeySpace: 1 << 10,
		Seed:     7,
		Timeout:  30 * time.Second,
	})
	if err == nil {
		t.Fatal("capacity-refused run reported success")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("refused run took %v; did not fail fast", elapsed)
	}
}
