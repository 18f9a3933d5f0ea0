package main

import (
	"fmt"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
)

// recovery measures crash recovery (Sec. 5.2) for every buffered-durable
// kind: heaps of increasing size are filled, hit with an unsynced remove
// wave (so the scan also performs resurrection write-backs), power-failed
// with every dirty line evicted, and recovered through kv.Recover with 1,
// 2, 4 and 8 scan workers. Each cell rebuilds the identical pre-crash image
// from scratch, so the timings are comparable across worker counts; the
// scan is the same work for every kind, the rebuild is the structure's own.
// Report only: a single run's wall clock cannot rank worker counts on a
// small host (crashfuzz's TestRecoverParallelEquivalence is the
// correctness check).
func recovery() {
	heapSizes := []int{1 << 19, 1 << 21, 1 << 23}
	if *full {
		heapSizes = append(heapSizes, 1<<25)
	}
	fmt.Printf("\nSec. 5.2 — recovery, scan+rebuild vs structure, heap size and scan workers\n")
	fmt.Printf("  %-22s %-12s %-8s %12s %12s %10s %12s %10s\n",
		"structure", "heap_words", "workers", "scan", "rebuild", "blocks", "resurrected", "speedup")
	for _, name := range kv.BufferedKinds() {
		k, _ := kv.Lookup(name)
		for _, words := range heapSizes {
			var baseScan int64
			for _, workers := range []int{1, 2, 4, 8} {
				rec := recoverCell(k, words, workers)
				st := rec.Sys.Stats()
				rec.Close()
				scan, rebuild, blocks := st.RecoveryScanNS, rec.RebuildNS, len(rec.Recovered)
				if workers == 1 {
					baseScan = scan
				}
				fmt.Printf("  %-22s %-12d %-8d %12v %12v %10d %12d %9.2fx\n",
					k.Title, words, workers,
					time.Duration(scan).Round(time.Microsecond),
					time.Duration(rebuild).Round(time.Microsecond),
					blocks, st.Resurrected, float64(baseScan)/float64(scan))
			}
		}
	}
}

// recoverCell builds one pre-crash image of kind k deterministically, power
// fails it, and recovers it with the given scan worker count.
func recoverCell(k kv.Kind, heapWords, workers int) *kv.Stack {
	records := heapWords / 32
	parts := func(h *nvm.Heap) kv.Parts {
		p := kv.Parts{
			Heap:     h,
			TM:       htm.Default(),
			Epoch:    epoch.Config{Manual: true, RecoveryWorkers: workers},
			KeySpace: uint64(records) * 2,
		}
		if k.Index {
			p.Index = nvm.New(nvm.Config{Words: heapWords, Mode: nvm.ModeDRAM})
		}
		return p
	}
	st := kv.Open(k.Name, parts(nvm.New(nvm.Config{Words: heapWords})))
	s := st.Store.NewSession()
	for i := 0; i < records; i++ {
		s.Insert(uint64(i), uint64(i)*3+1)
	}
	st.Sync()
	// Unsynced remove wave, fully evicted: the scan must resurrect these.
	for i := 0; i < records/8; i++ {
		s.Remove(uint64(i))
	}
	st.Sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 1})
	return kv.Recover(k.Name, parts(st.Heap))
}
