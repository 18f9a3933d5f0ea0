package main

import (
	"fmt"
	"os"
	"time"

	"bdhtm/internal/bdserve"
	"bdhtm/internal/htm"
	"bdhtm/internal/loadgen"
	"bdhtm/internal/obs"
	"bdhtm/internal/ycsb"
)

// serve measures the networked service layer: an in-process bdserve
// instance driven by the closed-loop generator over loopback TCP, once
// in buffered mode (applied acks at HTM-commit speed, durable acks on
// the group-commit watermark) and once in -sync mode (durable-only
// acks). The comparison is the paper's buffered-durability claim at the
// service boundary: buffered clients see commit-latency acks while
// durability rides the epoch cadence for free; sync clients pay the
// epoch wait on every write. Rows carry the net section (ack ledger,
// network percentiles), and any dropped or duplicated ack fails the run
// — the gate CI's serve-smoke lane relies on.
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

	mix, _ := ycsb.WorkloadMix(workload)
	for _, sync := range []bool{false, true} {
		mode := "buffered"
		if sync {
			mode = "sync"
		}
		// Each mode gets its own recorder so the SLO histograms conserve
		// exactly against this run's ack ledger (the validator enforces
		// durable_samples == acked_durable per row).
		sloObs := obs.New("bdbench-serve-" + mode)
		srv := bdserve.New(bdserve.Config{
			KeySpace:    *keySpace,
			EpochLength: 2 * time.Millisecond,
			Shards:      *epochShards,
			Engine:      *engineFlag,
			SyncAcks:    sync,
			Obs:         sloObs,
		})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bdbench: serve: %v\n", err)
			os.Exit(1)
		}
		res, err := loadgen.Run(loadgen.Config{
			Addr:     addr.String(),
			Conns:    conns,
			Ops:      opsPer,
			Mode:     loadgen.Closed,
			Pipeline: 8,
			Workload: workload,
			KeySpace: *keySpace,
			Seed:     42,
			SyncAcks: sync,
		})
		st := srv.Stats()
		tmStats := srv.TMStats()
		srv.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bdbench: serve: %v\n", err)
			os.Exit(1)
		}
		if res.DupAcks != 0 || res.Errors != 0 {
			fmt.Fprintf(os.Stderr, "bdbench: serve: ack violations — %d dup/reordered acks, %d errors\n",
				res.DupAcks, res.Errors)
			os.Exit(1)
		}
		if res.DurableAcks != res.Writes || st.DurableAcks != res.DurableAcks {
			fmt.Fprintf(os.Stderr, "bdbench: serve: dropped durable acks — client %d, server %d, writes %d\n",
				res.DurableAcks, st.DurableAcks, res.Writes)
			os.Exit(1)
		}

		kops := float64(res.Ops) / res.Elapsed.Seconds() / 1e3
		fmt.Printf("%-10s %12.1f %14s %14s %12d %12d\n",
			mode, kops,
			time.Duration(res.NetP50NS), time.Duration(res.NetP99NS),
			res.AppliedAcks, res.DurableAcks)

		collector.Append(obs.BenchRow{
			Structure: "bdserve/bdhash+" + mode,
			Threads:   conns,
			Dist:      "uniform",
			ReadPct:   mix.ReadPct,
			Ops:       res.Ops,
			ElapsedNS: res.Elapsed.Nanoseconds(),
			Mops:      float64(res.Ops) / res.Elapsed.Seconds() / 1e6,
			Net: &obs.NetSummary{
				Conns:        conns,
				Mode:         loadgen.Closed.String(),
				SyncAcks:     sync,
				NetP50NS:     res.NetP50NS,
				NetP99NS:     res.NetP99NS,
				AckedApplied: res.AppliedAcks,
				AckedDurable: res.DurableAcks,
				AckLagEpochs: st.MaxAckLag,
				SLO:          serveSLO(sloObs, tmStats),
			},
		})
	}
}

// serveSLO folds the server-side SLO histograms and the HTM abort
// breakdown into the report's slo block.
func serveSLO(r *obs.Recorder, tm htm.StatsSnapshot) *obs.NetSLO {
	applied := r.SvcSnapshot(obs.SvcAppliedAckNS)
	durable := r.SvcSnapshot(obs.SvcDurableAckNS)
	lagNS := r.SvcSnapshot(obs.SvcAckLagNS)
	lagEp := r.SvcSnapshot(obs.SvcAckLagEpochs)
	slo := &obs.NetSLO{
		AppliedAckP50NS: applied.Quantile(0.50),
		AppliedAckP99NS: applied.Quantile(0.99),
		DurableAckP50NS: durable.Quantile(0.50),
		DurableAckP99NS: durable.Quantile(0.99),
		AckLagP50NS:     lagNS.Quantile(0.50),
		AckLagP99NS:     lagNS.Quantile(0.99),
		AckLagP50Epochs: lagEp.Quantile(0.50),
		AckLagP99Epochs: lagEp.Quantile(0.99),
		DurableSamples:  durable.Count,
	}
	causes := map[string]int64{
		"conflict":   tm.Conflict,
		"capacity":   tm.Capacity,
		"explicit":   tm.Explicit,
		"locked":     tm.Locked,
		"spurious":   tm.Spurious,
		"memtype":    tm.MemType,
		"persist-op": tm.PersistOp,
	}
	for k, v := range causes {
		if v == 0 {
			delete(causes, k)
		}
	}
	if len(causes) > 0 {
		slo.AbortCauses = causes
	}
	return slo
}
