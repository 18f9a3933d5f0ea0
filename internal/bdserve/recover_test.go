package bdserve

import (
	"fmt"
	"runtime"
	"testing"

	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
	"bdhtm/internal/wire"
)

// TestRecoverColdStartServes is the recover-then-serve cold start of the
// service layer: fill a server over the wire, drive a durable checkpoint,
// overwrite a tail without one, power-fail, bring a new server up on the
// same heap with its header scan on GOMAXPROCS = 1 or 4 workers, and
// assert every durable-acked key is served with its exact value (so no
// tail update survived) — plus that the cold start reports its recovery
// metrics, and that with 4 workers the scan really ran partitioned. Runs
// in CI's race lane.
func TestRecoverColdStartServes(t *testing.T) {
	const n = 2048
	for _, structure := range kv.BufferedKinds() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", structure, workers), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(workers)
				t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
				cfg := Config{Structure: structure, KeySpace: 1 << 12, Manual: true}
				srv := New(cfg)
				if es := srv.System().Stats(); es.RecoveryWorkers != 0 || es.RecoveryScanNS != 0 ||
					es.RecoveryRebuildNS != 0 || es.RecoveredLive != 0 || es.Resurrected != 0 {
					t.Fatalf("fresh server reports recovery metrics: %+v", es)
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
				es := rec.System().Stats()
				slabs := int(rec.System().Allocator().FootprintBytes() / (4096 * nvm.WordBytes))
				if want := min(workers, slabs); es.RecoveryWorkers != want {
					t.Fatalf("Stats.RecoveryWorkers = %d, want %d (GOMAXPROCS %d, %d formatted slabs)", es.RecoveryWorkers, want, workers, slabs)
				}
				if workers > 1 && es.RecoveryWorkers < 2 {
					t.Fatalf("Stats.RecoveryWorkers = %d with GOMAXPROCS %d: the scan did not partition", es.RecoveryWorkers, workers)
				}
				if es.RecoveryScanNS <= 0 || es.RecoveryRebuildNS <= 0 {
					t.Fatalf("recovery timings missing: %+v", es)
				}
				if es.RecoveredLive != n {
					t.Fatalf("Stats.RecoveredLive = %d, want %d", es.RecoveredLive, n)
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
