package loadgen

import (
	"fmt"
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

func TestPlanUnknownWorkload(t *testing.T) {
	if _, err := Plan(Config{Workload: "Z"}, 0); err == nil {
		t.Fatal("Plan accepted unknown workload")
	}
	if _, err := Run(Config{Workload: "Z"}); err == nil {
		t.Fatal("Run accepted unknown workload")
	}
}

// TestRunClosedLoop is the end-to-end smoke: every planned op completes
// with a balanced ack ledger on both ends of the wire.
func TestRunClosedLoop(t *testing.T) {
	srv := bdserve.New(bdserve.Config{KeySpace: 1 << 10, EpochLength: 2 * time.Millisecond})
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
		Workload: "A",
		KeySpace: 1 << 10,
		Seed:     1,
		Timeout:  60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(600, srv.WireStats()); err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 || res.Reads == 0 {
		t.Fatalf("degenerate workload A split: %d reads, %d writes", res.Reads, res.Writes)
	}
	if res.NetP50NS <= 0 || res.NetP99NS < res.NetP50NS {
		t.Fatalf("latency summary out of order: p50 %d p99 %d", res.NetP50NS, res.NetP99NS)
	}
}

// TestRunSyncMode pins the WaitDurable client policy, the "sync" row of
// bdbench serve: a write holds its window slot until its durable ack. On
// a Manual-mode server, with one connection and a window of 1, the second
// PUT reaches the server only once an advance releases the first PUT's
// durable ack; without the policy it arrives before any advance. Either
// way every write gets both acks.
func TestRunSyncMode(t *testing.T) {
	for _, waitDurable := range []bool{true, false} {
		t.Run(fmt.Sprintf("WaitDurable=%v", waitDurable), func(t *testing.T) {
			srv := bdserve.New(bdserve.Config{KeySpace: 1 << 10, Manual: true})
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			type outcome struct {
				res Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := Run(Config{
					Addr:        addr.String(),
					Conns:       1,
					Ops:         2,
					Pipeline:    1,
					Mix:         ycsb.Mix{InsertOnly: true},
					KeySpace:    1 << 10,
					Seed:        1,
					WaitDurable: waitDurable,
					Timeout:     30 * time.Second,
				})
				done <- outcome{res, err}
			}()
			deadline := time.Now().Add(20 * time.Second)
			waitFor := func(what string, cond func() bool) {
				t.Helper()
				for !cond() {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
					time.Sleep(time.Millisecond)
				}
			}
			if waitDurable {
				waitFor("the first PUT's applied ack", func() bool { return srv.Stats().AppliedAcks >= 1 })
				time.Sleep(100 * time.Millisecond)
				if n := srv.Stats().Requests; n != 1 {
					t.Fatalf("%d requests reached the server before the first PUT was durable", n)
				}
			} else {
				waitFor("the second PUT", func() bool { return srv.Stats().Requests == 2 })
			}
			var out outcome
			for waiting := true; waiting; {
				select {
				case out = <-done:
					waiting = false
				default:
					if time.Now().After(deadline) {
						t.Fatal("run did not complete")
					}
					srv.System().AdvanceOnce()
					time.Sleep(time.Millisecond)
				}
			}
			if out.err != nil {
				t.Fatal(out.err)
			}
			if out.res.Writes != 2 {
				t.Fatalf("%d of 2 inserts were writes", out.res.Writes)
			}
			if err := out.res.Verify(2, srv.WireStats()); err != nil {
				t.Fatal(err)
			}
			if n := srv.Stats().Requests; n != 2 {
				t.Fatalf("server saw %d requests, want 2", n)
			}
		})
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
