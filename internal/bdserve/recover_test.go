package bdserve

import (
	"fmt"
	"testing"

	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
	"bdhtm/internal/wire"
)

// TestRecoverColdStartServes is the recover-then-serve smoke for the
// service layer (mirrors cmd/bdserve -recover): fill a server over the
// wire, drive a durable checkpoint, power-fail, bring a new server up on
// the same heap with parallel recovery, and assert every durable-acked
// key is served with its exact value — plus that the cold start reports
// its recovery metrics. Runs in CI's race lane.
func TestRecoverColdStartServes(t *testing.T) {
	const n = 64
	for _, structure := range kv.BufferedKinds() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", structure, workers), func(t *testing.T) {
				cfg := Config{
					Structure:       structure,
					KeySpace:        1 << 8,
					Manual:          true,
					RecoveryWorkers: workers,
				}
				srv := New(cfg)
				if got := srv.Recovery(); got != (RecoveryInfo{}) {
					t.Fatalf("fresh server reports recovery metrics: %+v", got)
				}
				addr, err := srv.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				c := dial(t, addr)

				// Fill, then durable checkpoint.
				var maxEpoch uint64
				for i := uint64(0); i < n; i++ {
					c.send(wire.Msg{Type: wire.CmdPut, ID: i + 1, Key: i, Value: i*11 + 5})
					m := c.recv()
					if m.Type != wire.RespApplied {
						t.Fatalf("want applied ack, got %+v", m)
					}
					if m.Epoch > maxEpoch {
						maxEpoch = m.Epoch
					}
				}
				for srv.System().PersistedEpoch() < maxEpoch {
					srv.System().AdvanceOnce()
				}
				for i := 0; i < n; i++ {
					if m := c.recv(); m.Type != wire.RespDurable {
						t.Fatalf("want durable ack, got %+v", m)
					}
				}

				// Unsynced tail that must roll back.
				for i := uint64(0); i < n/4; i++ {
					c.send(wire.Msg{Type: wire.CmdPut, ID: n + i + 1, Key: i, Value: 1})
					if m := c.recv(); m.Type != wire.RespApplied {
						t.Fatalf("want applied ack, got %+v", m)
					}
				}

				srv.Crash(nvm.CrashOptions{})

				rec := Recover(srv.Heap(), cfg)
				defer rec.Close()
				ri := rec.Recovery()
				if ri.Workers != workers {
					t.Fatalf("RecoveryInfo.Workers = %d, want %d", ri.Workers, workers)
				}
				if ri.ScanNS <= 0 || ri.RebuildNS <= 0 {
					t.Fatalf("recovery timings missing: %+v", ri)
				}
				if ri.Blocks != n {
					t.Fatalf("RecoveryInfo.Blocks = %d, want %d", ri.Blocks, n)
				}
				if rec.System().PersistedEpoch() < maxEpoch {
					t.Fatalf("recovered watermark %d below durable cut %d",
						rec.System().PersistedEpoch(), maxEpoch)
				}

				// Every durable-acked key must be served over the wire.
				addr2, err := rec.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				c2 := dial(t, addr2)
				for i := uint64(0); i < n; i++ {
					c2.send(wire.Msg{Type: wire.CmdGet, ID: i + 1, Key: i})
					m := c2.recv()
					if m.Type != wire.RespValue || !m.Found || m.Value != i*11+5 {
						t.Fatalf("key %d after recovery: %+v, want value %d", i, m, i*11+5)
					}
				}
			})
		}
	}
}
