// Quickstart: the paper's Listing-1 hash table end to end — insert under
// HTM with buffered durability, simulate a power failure, recover.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bdhtm/internal/bdhash"
	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

func main() {
	// 1. A simulated NVM heap (volatile CPU cache over persistent media)
	//    and the buffered-durability epoch system on top of it.
	heap := nvm.New(nvm.Config{Words: 1 << 20})
	sys := epoch.New(heap, epoch.Config{Manual: true}) // we advance epochs by hand
	tm := htm.Default()

	table := bdhash.New(sys, tm, 4096, 1)
	w := sys.Register()

	// 2. Inserts run as hardware transactions; flushes never appear
	//    inside them — persistence is buffered per epoch.
	for k := uint64(0); k < 1000; k++ {
		table.Insert(w, k, k*k)
	}
	fmt.Printf("inserted %d keys in epoch %d\n", table.Len(), sys.GlobalEpoch())

	// 3. Make everything buffered so far durable (the background
	//    advancer normally does this every ~50ms).
	sys.Sync()
	fmt.Printf("persisted epoch is now %d\n", sys.PersistedEpoch())

	// 4. A few more inserts that will NOT be durable at the crash...
	for k := uint64(5000); k < 5010; k++ {
		table.Insert(w, k, 1)
	}

	// 5. Power failure: the volatile cache is lost; half the dirty lines
	//    happened to be written back in arbitrary order beforehand.
	sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 0.5, Seed: 42})
	fmt.Println("-- crash --")

	// 6. Recovery scans the NVM heap, keeps exactly the blocks from
	//    persisted epochs, and replays them into a DRAM index built on the
	//    recovered system.
	var table2 *bdhash.Table
	sys2 := epoch.RecoverInto(heap, epoch.Config{Manual: true}, func(sys *epoch.System) func(epoch.BlockRecord) {
		table2 = bdhash.New(sys, htm.Default(), 4096, 1)
		return table2.RebuildBlock
	})

	fmt.Printf("recovered %d keys (persisted epoch %d)\n", table2.Len(), sys2.PersistedEpoch())
	if v, ok := table2.Get(31); ok && v == 31*31 {
		fmt.Println("synced data survived: Get(31) =", v)
	} else {
		log.Fatalf("synced key 31 lost: Get(31) = %d, %v", v, ok)
	}
	if _, ok := table2.Get(5003); !ok {
		fmt.Println("unsynced tail correctly rolled back: Get(5003) -> not found")
	} else {
		log.Fatal("unsynced key 5003 survived the crash")
	}
	sys2.Stop()
}
