// Command bdrecover demonstrates and times crash recovery for the
// buffered-durable structures (Sec. 5.2 of the paper).
//
//	bdrecover [-structure bdhash|veb|skiplist|spash] [-records N] [-evict F]
//	          [-engine bdl|undo|redo4f|redo2f|quadra] [-workers N]
//
// It fills the structure, overwrites and restores a few records so that
// the retire journal has work, makes the data durable, power-fails the heap
// with a random fraction of dirty lines written back, recovers through
// kv.Recover (with the header scan partitioned across -workers goroutines
// and a live progress report), verifies every record, and prints
// scan/rebuild timings and what the journal replay read, applied and
// erased.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"bdhtm/internal/durability"
	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

var (
	structure  = flag.String("structure", "bdhash", strings.Join(kv.BufferedKinds(), " | "))
	records    = flag.Int("records", 100000, "number of KV records")
	evict      = flag.Float64("evict", 0.5, "fraction of dirty lines written back before the crash")
	tail       = flag.Int("tail", 1000, "unsynced operations issued after the checkpoint")
	engineFlag = flag.String("engine", "", "durability engine (default bdl; see internal/durability)")
	workers    = flag.Int("workers", 1, "recovery scan worker goroutines")
	obsHTTP    = flag.String("obs-http", "", "serve /obs, /metrics and /debug/pprof on this address during the run")
)

// runConfig parameterizes one fill/crash/recover/verify cycle; main maps
// the flags onto it and tests drive it directly.
type runConfig struct {
	structure string
	records   int
	evict     float64
	tail      int
	engine    string // "" = default (bdl); must match on both sides of the crash
	workers   int
	progress  bool          // live scan progress on out (main only; tests keep it off)
	obs       *obs.Recorder // nil disables telemetry
	out       io.Writer
}

func main() {
	flag.Parse()
	if *engineFlag != "" {
		if _, err := durability.New(*engineFlag, nil, nil); err != nil {
			fmt.Fprintf(os.Stderr, "bdrecover: %v\n", err)
			os.Exit(2)
		}
	}
	var rec *obs.Recorder
	if *obsHTTP != "" {
		rec = obs.New("bdrecover")
		hs, err := obs.StartHTTP(*obsHTTP, rec, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bdrecover: obs-http: %v\n", err)
			os.Exit(1)
		}
		defer hs.Close()
		fmt.Printf("bdrecover: observability on http://%s (/obs /metrics /debug/pprof)\n", hs.Addr())
	}
	err := run(runConfig{
		structure: *structure,
		records:   *records,
		evict:     *evict,
		tail:      *tail,
		engine:    *engineFlag,
		workers:   *workers,
		progress:  true,
		obs:       rec,
		out:       os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bdrecover: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	kind, ok := kv.Lookup(cfg.structure)
	if !ok || !kind.Buffered {
		return fmt.Errorf("unknown structure %q (have %v)", cfg.structure, kv.BufferedKinds())
	}
	// The heap must be formatted and recovered by the same engine: the
	// engine writes an identity word at format time and recovery panics
	// on a mismatch, so -engine is threaded into both configs.
	parts := func(h *nvm.Heap, ecfg epoch.Config) kv.Parts {
		ecfg.Manual, ecfg.Engine, ecfg.Obs = true, cfg.engine, cfg.obs
		p := kv.Parts{Heap: h, TM: htm.Default(), Epoch: ecfg, KeySpace: uint64(cfg.records) * 2}
		if kind.Index {
			p.Index = nvm.New(nvm.Config{Words: wordsFor(cfg.records), Mode: nvm.ModeDRAM})
		}
		return p
	}
	st := kv.Open(cfg.structure, parts(nvm.New(nvm.Config{Words: wordsFor(cfg.records)}), epoch.Config{}))

	fmt.Fprintf(cfg.out, "filling %s with %d records...\n", cfg.structure, cfg.records)
	s := st.Store.NewSession()
	for k := 0; k < cfg.records; k++ {
		s.Insert(uint64(k), uint64(k)*3+1)
	}
	// Overwrite the first -tail records and put them back an epoch later:
	// both waves retire the blocks they replace, so the checkpoint has
	// journaled retirements below it for recovery to replay.
	for _, scratch := range []bool{true, false} {
		st.Sync()
		for k := 0; k < min(cfg.tail, cfg.records); k++ {
			v := uint64(k)*3 + 1
			if scratch {
				v = 5
			}
			s.Insert(uint64(k), v)
		}
	}
	st.Sync()
	fmt.Fprintf(cfg.out, "checkpoint: persisted epoch %d\n", st.Sys.PersistedEpoch())

	for k := 0; k < cfg.tail; k++ {
		s.Insert(uint64(k), 7) // updates the crash will roll back
	}

	st.Sys.SimulateCrash(nvm.CrashOptions{EvictFraction: cfg.evict})
	fmt.Fprintf(cfg.out, "-- crash (evict fraction %.2f) --\n", cfg.evict)

	rcfg := epoch.Config{RecoveryWorkers: cfg.workers}
	start := time.Now()
	if cfg.progress {
		// Live progress, printed at most every 100ms. The tick arrives
		// concurrently from scan workers; the CAS elects one printer.
		var lastPrint atomic.Int64
		rcfg.RecoveryTick = func(slabs, recovered, resurrected int64) {
			now := time.Now().UnixNano()
			last := lastPrint.Load()
			if now-last < 100*int64(time.Millisecond) || !lastPrint.CompareAndSwap(last, now) {
				return
			}
			elapsed := time.Duration(now - start.UnixNano()).Seconds()
			fmt.Fprintf(cfg.out, "\r  scan: %d slabs, %d blocks recovered, %d resurrected (%.0f resurrections/s)",
				slabs, recovered, resurrected, float64(resurrected)/elapsed)
		}
	}
	rec := kv.Recover(cfg.structure, parts(st.Heap, rcfg))
	defer rec.Close()
	rebuild := time.Duration(rec.RebuildNS)
	scan := time.Since(start) - rebuild
	if cfg.progress {
		fmt.Fprintln(cfg.out)
	}

	es := rec.Sys.Stats()
	fmt.Fprintf(cfg.out, "heap scan:      %v (%d blocks, %d resurrected, %d workers)\n",
		scan, len(rec.Recovered), es.Resurrected, cfg.workers)
	fmt.Fprintf(cfg.out, "retire journal: %d pages read, %d records applied, %d pages erased\n",
		es.JournalPagesRead, es.JournalRecordsApplied, es.JournalPagesErased)
	fmt.Fprintf(cfg.out, "index rebuild:  %v\n", rebuild)

	bad := 0
	s = rec.Store.NewSession()
	for k := 0; k < cfg.records; k++ {
		if v, ok := s.Get(uint64(k)); !ok || v != uint64(k)*3+1 {
			bad++
		}
	}
	if bad != 0 || rec.Store.Len() != cfg.records {
		return fmt.Errorf("verification failed: %d bad records, Len=%d want %d", bad, rec.Store.Len(), cfg.records)
	}
	fmt.Fprintf(cfg.out, "verified: all %d checkpointed records intact; %d unsynced updates rolled back\n",
		cfg.records, cfg.tail)
	return nil
}

func wordsFor(records int) int {
	w := records * 24
	if w < 1<<21 {
		w = 1 << 21
	}
	return w
}
