package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
)

// recovery measures and checks crash recovery (Sec. 5.2) for every
// buffered-durable kind at heaps of increasing size, one recovery each:
// recoverCell builds the pre-crash image and recovers it. A row prints the
// header scan (on up to GOMAXPROCS workers) and the rebuild, the blocks
// recovered and resurrected, what the retire journal replay read, applied
// and erased, the recovered heap's materialised view pages (32 KiB each)
// and the lines holding a pre-image (nvm.StatsSnapshot), the KiB that
// recovery and the rebuild allocated on the Go heap
// (runtime.MemStats.TotalAlloc across kv.Recover: whatever recovery held
// beside the index) and the process's resident MiB after the rebuild
// (VmRSS), which also counts what the Go heap does not: the heap's view and
// bdhash's slot array, both mappings (nvm.MapWords). Each row is
// verified: every synced key must read back its value. Any failure exits
// non-zero once every row is printed.
// The timings are report only: a single run's wall clock cannot rank
// anything on a small host.
func recovery() {
	heapSizes := []int{1 << 19, 1 << 21, 1 << 23}
	if *full {
		heapSizes = append(heapSizes, 1<<25)
	}
	fmt.Printf("\nSec. 5.2 — recovery, scan+rebuild vs structure and heap size (GOMAXPROCS %d)\n", runtime.GOMAXPROCS(0))
	fmt.Printf("  %-22s %10s %7s %12s %12s %9s %11s %7s %9s %8s %8s %8s %9s %7s  %s\n",
		"structure", "heap_words", "workers", "scan", "rebuild", "blocks", "resurrected",
		"j_read", "j_applied", "j_erased", "view_pg", "preimg", "alloc_KiB", "rss_MiB", "verified")
	failed := false
	for _, name := range kv.BufferedKinds() {
		k, _ := kv.Lookup(name)
		for _, words := range heapSizes {
			rec, alloc, rss, err := recoverCell(k, words)
			st, hs := rec.Sys.Stats(), rec.Heap.Stats()
			rec.Close()
			verdict := "ok"
			if err != nil {
				verdict, failed = "FAIL: "+err.Error(), true
			}
			fmt.Printf("  %-22s %10d %7d %12v %12v %9d %11d %7d %9d %8d %8d %8d %9d %7.1f  %s\n",
				k.Title, words, st.RecoveryWorkers,
				time.Duration(st.RecoveryScanNS).Round(time.Microsecond),
				time.Duration(st.RecoveryRebuildNS).Round(time.Microsecond),
				st.RecoveredLive, st.Resurrected,
				st.JournalPagesRead, st.JournalRecordsApplied, st.JournalPagesErased,
				hs.ViewPages, hs.PreImages, alloc>>10, float64(rss)/(1<<20), verdict)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "bdbench: recovery: verification failed")
		os.Exit(1)
	}
}

// recoverCell builds one pre-crash image of kind k on a heap of heapWords,
// deterministically, power-fails it and recovers it. The
// image holds one record per 32 heap words. The first eighth of the keys
// is overwritten and restored an epoch later, both waves synced: each
// retires the blocks it replaces, so the journal holds retirements at or
// below the persisted epoch for the scan to apply. That eighth is then
// removed without a sync, and the crash writes back half the dirty lines,
// so the scan also resurrects the removals that reached the media. alloc is
// the bytes kv.Recover allocated, rss the process's resident bytes once it
// returned; the error reports synced keys the recovered store lost or got
// wrong.
func recoverCell(k kv.Kind, heapWords int) (rec *kv.Stack, alloc, rss uint64, err error) {
	records := heapWords / 32
	parts := func(h *nvm.Heap) kv.Parts {
		return kv.Parts{
			Heap:     h,
			TM:       htm.Default(),
			Epoch:    epoch.Config{Manual: true},
			KeySpace: uint64(records) * 2,
		}
	}
	value := func(i int) uint64 { return uint64(i)*3 + 1 }
	st := kv.Open(k.Name, parts(nvm.New(nvm.Config{Words: heapWords})))
	s := st.Store.NewSession()
	for i := 0; i < records; i++ {
		s.Insert(uint64(i), value(i))
	}
	wave := records / 8
	for _, scratch := range []bool{true, false} {
		st.Sync()
		for i := 0; i < wave; i++ {
			v := value(i)
			if scratch {
				v = 5
			}
			s.Insert(uint64(i), v)
		}
	}
	st.Sync()
	for i := 0; i < wave; i++ {
		s.Remove(uint64(i))
	}
	st.Sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 0.5, Seed: uint64(heapWords)})

	// What the build left as garbage goes back to the kernel first, so rss
	// is what the recovered store holds (and the runtime keeps).
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec = kv.Recover(k.Name, parts(st.Heap))
	runtime.ReadMemStats(&after)
	alloc = after.TotalAlloc - before.TotalAlloc
	rss = residentBytes()
	s = rec.Store.NewSession()
	bad := 0
	for i := 0; i < records; i++ {
		if v, ok := s.Get(uint64(i)); !ok || v != value(i) {
			bad++
		}
	}
	if n := rec.Store.Len(); bad != 0 || n != records {
		return rec, alloc, rss, fmt.Errorf("%d of %d synced keys lost or wrong, Len %d", bad, records, n)
	}
	return rec, alloc, rss, nil
}

// residentBytes is the process's resident set, VmRSS in /proc/self/status;
// 0 where there is none.
func residentBytes() uint64 {
	b, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(b), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			n, _ := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 10, 64)
			return n << 10
		}
	}
	return 0
}
