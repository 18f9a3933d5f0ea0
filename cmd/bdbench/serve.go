package main

import (
	"fmt"
	"os"
	"time"

	"bdhtm/internal/bdserve"
	"bdhtm/internal/loadgen"
)

// serve measures the networked service layer: an in-process bdserve
// instance driven by the closed-loop generator over loopback TCP. The
// server sends every write an applied ack at HTM-commit speed and a
// durable ack on the group-commit watermark; the client runs once
// buffered (a write frees its window slot at the applied ack) and once
// sync (loadgen's WaitDurable: the slot waits for the durable ack). The
// comparison is the paper's buffered-durability claim at the service
// boundary: buffered clients see commit-latency acks while durability
// rides the epoch cadence for free; sync clients pay the epoch wait on
// every write. Any violation of the ack ledger (loadgen's Result.Verify,
// the gate bdserve -selftest applies too) fails the run — the gate CI's
// serve-smoke lane relies on.
func serve() {
	const (
		conns    = 4
		opsPer   = 2000
		workload = "A"
	)
	fmt.Printf("\nService layer — bdserve/bdhash, workload %s, %d conns x %d ops, closed loop\n",
		workload, conns, opsPer)
	fmt.Printf("%-10s %12s %14s %14s %12s %12s\n",
		"mode", "Kops/s", "net p50", "net p99", "applied", "durable")

	for _, sync := range []bool{false, true} {
		mode := "buffered"
		if sync {
			mode = "sync"
		}
		srv := bdserve.New(bdserve.Config{
			KeySpace:    *keySpace,
			EpochLength: 2 * time.Millisecond,
		})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bdbench: serve: %v\n", err)
			os.Exit(1)
		}
		res, err := loadgen.Run(loadgen.Config{
			Addr:        addr.String(),
			Conns:       conns,
			Ops:         opsPer,
			Pipeline:    8,
			Workload:    workload,
			KeySpace:    *keySpace,
			Seed:        42,
			WaitDurable: sync,
		})
		ledger := srv.WireStats()
		srv.Close()
		if err == nil {
			err = res.Verify(conns*opsPer, ledger)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bdbench: serve %s: %v\n", mode, err)
			os.Exit(1)
		}

		kops := float64(res.Ops) / res.Elapsed.Seconds() / 1e3
		fmt.Printf("%-10s %12.1f %14s %14s %12d %12d\n",
			mode, kops,
			time.Duration(res.NetP50NS), time.Duration(res.NetP99NS),
			res.AppliedAcks, res.DurableAcks)
	}
}
