// Command bdserve exposes the buffered-durable KV substrate (bdhash, or
// any other of internal/kv's buffered kinds: veb, skiplist, spash) over TCP
// using the internal/wire protocol.
//
// Usage:
//
//	bdserve [flags]                 serve until interrupted
//	bdserve -selftest N [flags]     in-process smoke: serve on a loopback
//	                                port, drive N ops per connection with
//	                                the load generator, print the ack
//	                                ledger, exit non-zero on violations
//
// Every write gets two acks, following the group-commit discipline:
// RespApplied at HTM commit, RespDurable when the epoch system's durable
// watermark covers the op's commit epoch. A client that wants the
// synchronous-persistence baseline waits for the second.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"bdhtm/internal/bdserve"
	"bdhtm/internal/kv"
	"bdhtm/internal/loadgen"
	"bdhtm/internal/obs"
)

var (
	addr        = flag.String("addr", "127.0.0.1:7787", "listen address")
	structure   = flag.String("structure", "bdhash", "store: "+strings.Join(kv.BufferedKinds(), "|"))
	keySpace    = flag.Uint64("keyspace", 1<<12, "key universe size")
	epochLength = flag.Duration("epoch-length", 2*time.Millisecond, "epoch advance cadence")
	maxSessions = flag.Int("max-sessions", 64, "maximum concurrently served connections")

	selftest     = flag.Int("selftest", 0, "serve on a loopback port and drive N ops/conn in-process, then exit")
	selfConns    = flag.Int("selftest-conns", 4, "selftest connections")
	selfWorkload = flag.String("selftest-workload", "A", "selftest YCSB workload: A, B, C, D or F")
	obsFlag      = flag.Bool("obs", false, "record obs telemetry")
	obsHTTP      = flag.String("obs-http", "", "serve /metrics and /debug/pprof on this address (implies -obs)")
	spanSample   = flag.Int("span-sample", 0, "trace 1 in N requests as lifecycle spans (0 disables; implies -obs)")
	traceOut     = flag.String("trace", "", "selftest: write sampled spans as a Chrome trace to this file (implies -span-sample 1 if unset)")
	spansOut     = flag.String("spans-out", "", "selftest: write sampled spans as JSONL to this file (implies -span-sample 1 if unset)")
	metricsOut   = flag.String("metrics-out", "", "selftest: write the OpenMetrics exposition to this file (implies -obs)")
)

// live is the server whose counters -obs-http serves; every mode stores
// the server it is running.
var live atomic.Pointer[bdserve.Server]

func liveCounters() any {
	if srv := live.Load(); srv != nil {
		return srv.WireStats()
	}
	return nil
}

func main() {
	flag.Parse()
	if k, ok := kv.Lookup(*structure); !ok || !k.Buffered {
		fmt.Fprintf(os.Stderr, "bdserve: unknown structure %q (have %s)\n", *structure, strings.Join(kv.BufferedKinds(), "|"))
		os.Exit(2)
	}
	cfg := bdserve.Config{
		Structure:   *structure,
		KeySpace:    *keySpace,
		EpochLength: *epochLength,
		MaxSessions: *maxSessions,
	}
	if *spanSample <= 0 && (*traceOut != "" || *spansOut != "") {
		*spanSample = 1 // a span export with no spans to export writes nothing
	}
	if *obsFlag || *obsHTTP != "" || *spanSample > 0 || *metricsOut != "" {
		cfg.Obs = obs.New()
	}
	if *spanSample > 0 {
		cfg.Obs.EnableSpans(4096, *spanSample)
	}
	if *obsHTTP != "" {
		hs, err := obs.StartHTTP(*obsHTTP, cfg.Obs, liveCounters)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bdserve: obs-http: %v\n", err)
			os.Exit(1)
		}
		defer hs.Close()
		fmt.Printf("bdserve: observability on http://%s (/metrics, pprof at /debug/pprof)\n", hs.Addr())
	}
	if *selftest > 0 {
		os.Exit(runSelftest(cfg))
	}

	srv := bdserve.New(cfg)
	live.Store(srv)
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bdserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("bdserve: %s on %s, epoch %s\n", *structure, bound, *epochLength)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("bdserve: shutting down")
	srv.Close()
	st := srv.Stats()
	fmt.Printf("bdserve: served %d conns, %d requests, %d commits (%d applied / %d durable acks)\n",
		st.Conns, st.Requests, st.WriteCommits, st.AppliedAcks, st.DurableAcks)
}

// runSelftest is the CI smoke: an in-process server plus a bounded
// closed-loop load-generator run, with the ack-conservation invariants
// asserted on both ends of the wire.
func runSelftest(cfg bdserve.Config) int {
	srv := bdserve.New(cfg)
	live.Store(srv)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bdserve: selftest: %v\n", err)
		return 1
	}
	defer srv.Close()

	res, err := loadgen.Run(loadgen.Config{
		Addr:     bound.String(),
		Conns:    *selfConns,
		Ops:      *selftest,
		Pipeline: 8,
		Workload: *selfWorkload,
		KeySpace: cfg.KeySpace,
		Seed:     42,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bdserve: selftest: %v\n", err)
		return 1
	}
	fmt.Printf("selftest: %d ops (%d reads / %d writes) in %v\n",
		res.Ops, res.Reads, res.Writes, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("selftest: acks applied=%d durable=%d  net p50=%s p99=%s\n",
		res.AppliedAcks, res.DurableAcks,
		time.Duration(res.NetP50NS), time.Duration(res.NetP99NS))

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "bdserve: selftest: "+format+"\n", args...)
		return 1
	}
	if err := res.Verify(int64(*selfConns)*int64(*selftest), srv.WireStats()); err != nil {
		return fail("%v", err)
	}
	fmt.Println("selftest: ack ledger balanced")

	if r := cfg.Obs; r != nil && r.SpanRing() != nil {
		ring := r.SpanRing()
		sampled, dropped, active := ring.Counts()
		spans := ring.Spans()
		fmt.Printf("selftest: spans sampled=%d dropped=%d completed=%d\n", sampled, dropped, len(spans))
		if sampled == 0 {
			return fail("span sampling enabled but no request was sampled")
		}
		if active != 0 {
			return fail("%d orphan spans still active after all acks", active)
		}
		// Phase-chain invariants for every completed span: stamped,
		// monotone, durable preceded by applied, epochs ordered. The
		// strict two-epoch lag bound is checked by the deterministic
		// manual-mode tests; a live advancer can outrun a descheduled
		// acker, so no bound here.
		if err := obs.CheckSpans(spans, obs.SpanCheck{MaxAckLagEpochs: -1}); err != nil {
			return fail("span invariant: %v", err)
		}
		var lagMax uint64
		for i := range spans {
			if spans[i].Write && spans[i].DurableEpoch-spans[i].CommitEpoch > lagMax {
				lagMax = spans[i].DurableEpoch - spans[i].CommitEpoch
			}
		}
		fmt.Printf("selftest: span chains valid, worst ack lag %d epochs\n", lagMax)
		if *traceOut != "" {
			if err := writeFileWith(*traceOut, func(w *os.File) error {
				return obs.WriteChromeTrace(w, spans)
			}); err != nil {
				return fail("trace export: %v", err)
			}
			fmt.Printf("selftest: chrome trace written to %s\n", *traceOut)
		}
		if *spansOut != "" {
			if err := writeFileWith(*spansOut, func(w *os.File) error {
				return obs.WriteSpansJSONL(w, spans)
			}); err != nil {
				return fail("spans export: %v", err)
			}
			fmt.Printf("selftest: span JSONL written to %s\n", *spansOut)
		}
	}
	if *metricsOut != "" {
		var buf strings.Builder
		if err := cfg.Obs.WriteOpenMetrics(&buf, srv.WireStats()); err != nil {
			return fail("metrics render: %v", err)
		}
		if err := obs.LintOpenMetrics([]byte(buf.String())); err != nil {
			return fail("metrics lint: %v", err)
		}
		if err := os.WriteFile(*metricsOut, []byte(buf.String()), 0o644); err != nil {
			return fail("metrics export: %v", err)
		}
		fmt.Printf("selftest: openmetrics exposition written to %s (lint clean)\n", *metricsOut)
	}
	return 0
}

func writeFileWith(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
