package main

import (
	"fmt"
	"runtime"
	"testing"

	"bdhtm/internal/durability"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
)

// TestEngineFormattedHeapRecovers is the regression for the recovery
// experiment ignoring -engine: it formatted and recovered with epoch's
// default engine, so `bdbench -engine X recovery` silently measured bdl.
// With the flag threaded into both configs, every engine's cell must
// recover on that engine and verify.
func TestEngineFormattedHeapRecovers(t *testing.T) {
	k, _ := kv.Lookup("bdhash")
	prev := *engineFlag
	t.Cleanup(func() { *engineFlag = prev })
	for _, eng := range durability.Names() {
		t.Run(eng, func(t *testing.T) {
			*engineFlag = eng
			rec, err := recoverCell(k, 1<<17)
			defer rec.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Sys.Stats().Engine; got != eng {
				t.Fatalf("recovered with engine %s, want %s", got, eng)
			}
		})
	}
}

// TestRecoveryCellVerifies runs every buffered kind's cell with the
// header scan on GOMAXPROCS = 1, 2, 4 and 8 workers: each must verify,
// run on as many workers as it has slabs for, and apply retirements from
// the journal (the synced overwrite-and-restore wave is there for that).
func TestRecoveryCellVerifies(t *testing.T) {
	for _, name := range kv.BufferedKinds() {
		k, _ := kv.Lookup(name)
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(workers)
				t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
				rec, err := recoverCell(k, 1<<17)
				defer rec.Close()
				if err != nil {
					t.Fatal(err)
				}
				st := rec.Sys.Stats()
				slabs := int(rec.Sys.Allocator().FootprintBytes() / (4096 * nvm.WordBytes))
				if want := min(workers, slabs); st.RecoveryWorkers != want {
					t.Fatalf("scan ran on %d workers, want %d (%d formatted slabs)", st.RecoveryWorkers, want, slabs)
				}
				if st.JournalPagesRead == 0 || st.JournalRecordsApplied == 0 {
					t.Fatalf("journal replay idle: %d pages read, %d records applied", st.JournalPagesRead, st.JournalRecordsApplied)
				}
			})
		}
	}
}
