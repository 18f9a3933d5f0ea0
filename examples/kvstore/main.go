// kvstore: a small persistent key-value service built on BD-Spash (the
// paper's Sec. 4.3 structure), exercising concurrent writers, a crash in
// the middle of traffic, and recovery — the lifecycle a storage engine
// embedding this library would see.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"sync"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/spash"
)

const accounts = 512

func main() {
	heap := nvm.New(nvm.Config{Words: 1 << 21})
	sys := epoch.New(heap, epoch.Config{Manual: true})
	store := spash.New(spash.Config{Mode: spash.ModeBD, Sys: sys, TM: htm.Default()})

	// Phase 1: four writers give every account an opening balance.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := sys.Register()
			defer sys.Release(w)
			for a := g; a < accounts; a += 4 {
				store.Insert(w, uint64(a), 100)
			}
		}(g)
	}
	wg.Wait()
	fmt.Printf("opened %d accounts\n", store.Len())

	// Checkpoint: everything so far becomes durable.
	sys.Sync()

	// Phase 2: more traffic that the crash will partially erase — BDL
	// guarantees we roll back to a consistent recent state, never a torn
	// one (exactly the guarantee disk-backed databases have relied on).
	w := sys.Register()
	for a := 0; a < 40; a++ {
		store.Insert(w, uint64(a), 100+uint64(a)) // unsynced updates
	}
	sys.Release(w)

	sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 0.3, Seed: 7})
	fmt.Println("-- power failure --")

	var store2 *spash.Table
	sys2 := epoch.RecoverInto(heap, epoch.Config{Manual: true}, func(sys *epoch.System) func(epoch.BlockRecord) {
		store2 = spash.New(spash.Config{Mode: spash.ModeBD, Sys: sys, TM: htm.Default()})
		return store2.RebuildBlock
	})

	fmt.Printf("recovered %d accounts\n", store2.Len())
	balanced := 0
	for a := 0; a < accounts; a++ {
		if v, ok := store2.Get(uint64(a)); ok && v == 100 {
			balanced++
		}
	}
	fmt.Printf("%d/%d accounts hold the checkpointed balance (unsynced updates rolled back)\n",
		balanced, accounts)
	if balanced != accounts {
		log.Fatalf("%d accounts lost their checkpointed balance", accounts-balanced)
	}

	// The store keeps serving after recovery.
	w2 := sys2.Register()
	store2.Insert(w2, 9999, 1)
	sys2.Release(w2)
	sys2.Sync()
	if v, ok := store2.Get(9999); ok {
		fmt.Println("post-recovery write served and persisted:", v)
	}
	sys2.Stop()
}
