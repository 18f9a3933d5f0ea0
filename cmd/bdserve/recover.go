package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"bdhtm/internal/bdserve"
	"bdhtm/internal/nvm"
	"bdhtm/internal/wire"
)

// runRecover is the recover-then-serve cold start: fill a fresh server
// with N keys over a loopback connection until every write is acked
// durable, issue an unsynced tail, power-fail the heap, recover a new
// server on the same heap, and verify over the wire that the recovered
// server serves every durable-acked key. Exits non-zero if any
// durable-acked key is lost or wrong, or if an unsynced tail update
// survived.
func runRecover(cfg bdserve.Config, n int) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "bdserve: recover: "+format+"\n", args...)
		return 1
	}
	// Manual epochs: the fill drives advances itself, so the durable
	// cut before the crash is deterministic.
	cfg.Manual = true

	srv := bdserve.New(cfg)
	live.Store(srv)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return fail("%v", err)
	}
	nc, err := net.Dial("tcp", bound.String())
	if err != nil {
		return fail("%v", err)
	}
	w, r := wire.NewWriter(nc), wire.NewReader(nc)
	recv := func() (wire.Msg, error) {
		nc.SetReadDeadline(time.Now().Add(30 * time.Second))
		return r.Read()
	}

	// Fill: n puts, applied-acked as they commit.
	fmt.Printf("bdserve: recover: filling %d keys over %s...\n", n, bound)
	var maxEpoch uint64
	for i := 0; i < n; i++ {
		k := uint64(i)
		w.Write(&wire.Msg{Type: wire.CmdPut, ID: k + 1, Key: k, Value: k*7 + 3})
	}
	w.Flush()
	for i := 0; i < n; i++ {
		m, err := recv()
		if err != nil {
			return fail("fill ack: %v", err)
		}
		if m.Type != wire.RespApplied {
			return fail("fill: want applied ack, got %s", m.Type)
		}
		if m.Epoch > maxEpoch {
			maxEpoch = m.Epoch
		}
	}
	// Durable checkpoint: advance until the watermark covers every fill
	// epoch, then drain the group-commit durable acks.
	for srv.System().PersistedEpoch() < maxEpoch {
		srv.System().AdvanceOnce()
	}
	for i := 0; i < n; i++ {
		m, err := recv()
		if err != nil {
			return fail("durable ack: %v", err)
		}
		if m.Type != wire.RespDurable {
			return fail("checkpoint: want durable ack, got %s", m.Type)
		}
	}

	// Unsynced tail: overwrite a slice of the keyspace without another
	// advance. These are applied-acked only and must not survive.
	tail := n / 5
	for i := 0; i < tail; i++ {
		w.Write(&wire.Msg{Type: wire.CmdPut, ID: uint64(n + i + 1), Key: uint64(i), Value: 9999})
	}
	w.Flush()
	for i := 0; i < tail; i++ {
		if m, err := recv(); err != nil || m.Type != wire.RespApplied {
			return fail("tail ack: %v (%+v)", err, m)
		}
	}
	nc.Close()

	// Power failure, then recover-then-serve on the same heap.
	srv.Crash(nvm.CrashOptions{})
	fmt.Printf("bdserve: recover: -- crash (watermark %d) --\n", maxEpoch)
	start := time.Now()
	rec := bdserve.Recover(srv.Heap(), cfg)
	live.Store(rec)
	defer rec.Close()
	ri := rec.Recovery()
	fmt.Printf("bdserve: recover: cold start %v (%d workers: scan %v, rebuild %v; %d blocks, %d resurrected)\n",
		time.Since(start).Round(time.Microsecond), ri.Workers,
		time.Duration(ri.ScanNS).Round(time.Microsecond),
		time.Duration(ri.RebuildNS).Round(time.Microsecond),
		ri.Blocks, ri.Resurrected)
	if rec.System().PersistedEpoch() < maxEpoch {
		return fail("recovered watermark %d below durable-acked epoch %d",
			rec.System().PersistedEpoch(), maxEpoch)
	}

	bound2, err := rec.Start("127.0.0.1:0")
	if err != nil {
		return fail("restart: %v", err)
	}
	nc2, err := net.Dial("tcp", bound2.String())
	if err != nil {
		return fail("%v", err)
	}
	defer nc2.Close()
	w2, r2 := wire.NewWriter(nc2), wire.NewReader(nc2)
	bad := 0
	for i := 0; i < n; i++ {
		k := uint64(i)
		w2.Write(&wire.Msg{Type: wire.CmdGet, ID: k + 1, Key: k})
		w2.Flush()
		nc2.SetReadDeadline(time.Now().Add(30 * time.Second))
		m, err := r2.Read()
		if err != nil {
			return fail("verify get: %v", err)
		}
		if m.Type != wire.RespValue || !m.Found || m.Value != k*7+3 {
			bad++
		}
	}
	if bad != 0 {
		return fail("%d of %d durable-acked keys lost or wrong after recovery", bad, n)
	}
	fmt.Printf("bdserve: recover: verified all %d durable-acked keys; %d unsynced tail updates rolled back\n",
		n, tail)
	return 0
}
