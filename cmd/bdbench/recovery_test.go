package main

import (
	"fmt"
	"runtime"
	"testing"

	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
)

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
				rec, _, _, err := recoverCell(k, 1<<17)
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
