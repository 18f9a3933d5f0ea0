// Command bdrecover demonstrates and times crash recovery for the
// buffered-durable structures (Sec. 5.2 of the paper).
//
//	bdrecover [-structure veb|skiplist|spash|hash] [-records N] [-evict F]
//	          [-engine bdl|undo|redo4f|redo2f|quadra] [-workers N]
//
// It fills the structure, overwrites and restores a few records so that
// the retire journal has work, makes the data durable, power-fails the heap
// with a random fraction of dirty lines written back, recovers (with the
// header scan partitioned across -workers goroutines and a live progress
// report), verifies every record, and prints scan/rebuild timings and what
// the journal replay read, applied and erased.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"bdhtm/internal/bdhash"
	"bdhtm/internal/durability"
	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/skiplist"
	"bdhtm/internal/spash"
	"bdhtm/internal/veb"
)

var (
	structure  = flag.String("structure", "hash", "veb | skiplist | spash | hash")
	records    = flag.Int("records", 100000, "number of KV records")
	evict      = flag.Float64("evict", 0.5, "fraction of dirty lines written back before the crash")
	tail       = flag.Int("tail", 1000, "unsynced operations issued after the checkpoint")
	engineFlag = flag.String("engine", "", "durability engine (default bdl; see internal/durability)")
	workers    = flag.Int("workers", 1, "recovery scan worker goroutines")
	obsHTTP    = flag.String("obs-http", "", "serve /obs, /metrics and /debug/pprof on this address during the run")
)

// rebuilder abstracts "rebuild the DRAM index from recovered blocks".
type rebuilder interface {
	RebuildBlock(epoch.BlockRecord)
	Len() int
	Get(k uint64) (uint64, bool)
}

type vebAdapter struct{ *veb.Tree }

func (a vebAdapter) Get(k uint64) (uint64, bool) { return a.Tree.Get(k) }

type slAdapter struct {
	*skiplist.List
	h *skiplist.Handle
}

func (a slAdapter) Get(k uint64) (uint64, bool) { return a.h.Get(k) }

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
		if _, err := durability.New(*engineFlag, nil, 1, nil); err != nil {
			fmt.Fprintf(os.Stderr, "bdrecover: %v\n", err)
			os.Exit(2)
		}
	}
	var rec *obs.Recorder
	if *obsHTTP != "" {
		rec = obs.New("bdrecover")
		hs, err := obs.StartHTTP(*obsHTTP, rec)
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
	heap := nvm.New(nvm.Config{Words: wordsFor(cfg.records)})
	// The heap must be formatted and recovered by the same engine: the
	// engine writes an identity word at format time and recovery panics
	// on a mismatch, so -engine is threaded into both configs.
	sys := epoch.New(heap, epoch.Config{Manual: true, Engine: cfg.engine, Obs: cfg.obs})

	insert, _, err := build(cfg.structure, sys, cfg.records)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "filling %s with %d records...\n", cfg.structure, cfg.records)
	w := sys.Register()
	for k := 0; k < cfg.records; k++ {
		insert(w, uint64(k), uint64(k)*3+1)
	}
	// Overwrite the first -tail records and put them back an epoch later:
	// both waves retire the blocks they replace, so the checkpoint has
	// journaled retirements below it for recovery to replay.
	for _, scratch := range []bool{true, false} {
		sys.Sync()
		for k := 0; k < min(cfg.tail, cfg.records); k++ {
			v := uint64(k)*3 + 1
			if scratch {
				v = 5
			}
			insert(w, uint64(k), v)
		}
	}
	sys.Sync()
	fmt.Fprintf(cfg.out, "checkpoint: persisted epoch %d\n", sys.PersistedEpoch())

	for k := 0; k < cfg.tail; k++ {
		insert(w, uint64(k), 7) // updates the crash will roll back
	}

	sys.SimulateCrash(nvm.CrashOptions{EvictFraction: cfg.evict})
	fmt.Fprintf(cfg.out, "-- crash (evict fraction %.2f) --\n", cfg.evict)

	rcfg := epoch.Config{Manual: true, Engine: cfg.engine, RecoveryWorkers: cfg.workers, Obs: cfg.obs}
	scanStart := time.Now()
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
			elapsed := time.Duration(now - scanStart.UnixNano()).Seconds()
			fmt.Fprintf(cfg.out, "\r  scan: %d slabs, %d blocks recovered, %d resurrected (%.0f resurrections/s)",
				slabs, recovered, resurrected, float64(resurrected)/elapsed)
		}
	}
	var recs []epoch.BlockRecord
	sys2 := epoch.Recover(heap, rcfg, func(r epoch.BlockRecord) {
		recs = append(recs, r)
	})
	scan := time.Since(scanStart)
	if cfg.progress {
		fmt.Fprintln(cfg.out)
	}

	_, makeRebuilder, err := build(cfg.structure, sys2, cfg.records)
	if err != nil {
		return err
	}
	rb := makeRebuilder()
	rebuildStart := time.Now()
	for _, r := range recs {
		rb.RebuildBlock(r)
	}
	rebuild := time.Since(rebuildStart)

	st := sys2.Stats()
	fmt.Fprintf(cfg.out, "heap scan:      %v (%d blocks, %d resurrected, %d workers)\n",
		scan, len(recs), st.Resurrected, cfg.workers)
	fmt.Fprintf(cfg.out, "retire journal: %d pages read, %d records applied, %d pages erased\n",
		st.JournalPagesRead, st.JournalRecordsApplied, st.JournalPagesErased)
	fmt.Fprintf(cfg.out, "index rebuild:  %v\n", rebuild)

	bad := 0
	for k := 0; k < cfg.records; k++ {
		if v, ok := rb.Get(uint64(k)); !ok || v != uint64(k)*3+1 {
			bad++
		}
	}
	if bad != 0 || rb.Len() != cfg.records {
		return fmt.Errorf("verification failed: %d bad records, Len=%d want %d", bad, rb.Len(), cfg.records)
	}
	fmt.Fprintf(cfg.out, "verified: all %d checkpointed records intact; %d unsynced updates rolled back\n",
		cfg.records, cfg.tail)
	sys2.Stop()
	return nil
}

// build returns an insert function bound to a fresh structure on sys, and
// a constructor for the post-crash rebuilder (bound to the same sys).
func build(kind string, sys *epoch.System, records int) (func(*epoch.Worker, uint64, uint64), func() rebuilder, error) {
	switch kind {
	case "veb":
		bits := uint8(1)
		for 1<<bits < records*2 {
			bits++
		}
		t := veb.New(veb.Config{UniverseBits: bits, TM: htm.Default(), DataSys: sys})
		return func(w *epoch.Worker, k, v uint64) { t.Insert(w, k, v) },
			func() rebuilder {
				return vebAdapter{veb.New(veb.Config{UniverseBits: bits, TM: htm.Default(), DataSys: sys})}
			}, nil
	case "skiplist":
		mk := func() *skiplist.List {
			return skiplist.New(skiplist.Config{
				Variant:   skiplist.BDL,
				IndexHeap: nvm.New(nvm.Config{Words: wordsFor(records), Mode: nvm.ModeDRAM}),
				DataSys:   sys, TM: htm.Default(),
			})
		}
		l := mk()
		h := l.NewHandle()
		return func(w *epoch.Worker, k, v uint64) { _ = w; h.Insert(k, v) },
			func() rebuilder {
				l2 := mk()
				return slAdapter{List: l2, h: l2.NewHandle()}
			}, nil
	case "spash":
		t := spash.New(spash.Config{Mode: spash.ModeBD, Sys: sys, TM: htm.Default()})
		return func(w *epoch.Worker, k, v uint64) { t.Insert(w, k, v) },
			func() rebuilder {
				return spash.New(spash.Config{Mode: spash.ModeBD, Sys: sys, TM: htm.Default()})
			}, nil
	case "hash":
		t := bdhash.New(sys, htm.Default(), records*2, 1)
		return func(w *epoch.Worker, k, v uint64) { t.Insert(w, k, v) },
			func() rebuilder {
				return bdhash.New(sys, htm.Default(), records*2, 1)
			}, nil
	default:
		return nil, nil, fmt.Errorf("unknown structure %q", kind)
	}
}

func wordsFor(records int) int {
	w := records * 24
	if w < 1<<21 {
		w = 1 << 21
	}
	return w
}
