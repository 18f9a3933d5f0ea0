// ordered-index: range and successor queries over the buffered-durable
// structures — a PHTM-vEB tree (doubly logarithmic successor, Sec. 4.1)
// and a BDL skiplist (Sec. 4.2) — motivated by the storage-index use case
// in the paper's introduction.
//
//	go run ./examples/ordered-index
package main

import (
	"fmt"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/skiplist"
	"bdhtm/internal/veb"
)

func main() {
	// Timestamps of "events" — sparse keys in a 2^20 universe.
	events := []uint64{4123, 90001, 90002, 250000, 777777, 1000000}

	// --- PHTM-vEB: successor queries in O(lg lg U) --------------------
	heap := nvm.New(nvm.Config{Words: 1 << 21})
	sys := epoch.New(heap, epoch.Config{Manual: true})
	tree := veb.New(veb.Config{UniverseBits: 20, TM: htm.Default(), DataSys: sys})
	w := sys.Register()
	for i, ts := range events {
		tree.Insert(w, ts, uint64(i))
	}
	sys.Sync()

	fmt.Println("PHTM-vEB: events after t=90001:")
	for t := uint64(90001); ; {
		nk, v, ok := tree.Successor(t)
		if !ok {
			break
		}
		fmt.Printf("  t=%d (event #%d)\n", nk, v)
		t = nk
	}

	// Range survives a crash: the index is rebuilt from NVM blocks.
	sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 0.8, Seed: 1})
	var tree2 *veb.Tree
	sys2 := epoch.RecoverInto(heap, epoch.Config{Manual: true}, func(sys *epoch.System) func(epoch.BlockRecord) {
		tree2 = veb.New(veb.Config{UniverseBits: 20, TM: htm.Default(), DataSys: sys})
		return tree2.RebuildBlock
	})
	if nk, _, ok := tree2.Successor(250000); ok {
		fmt.Printf("after crash+recovery, successor(250000) = %d\n", nk)
	}
	sys2.Stop()

	// --- BDL skiplist: ordered scans -----------------------------------
	nh := nvm.New(nvm.Config{Words: 1 << 21})
	ssys := epoch.New(nh, epoch.Config{Manual: true})
	list := skiplist.New(skiplist.Config{
		Variant:   skiplist.BDL,
		IndexHeap: nvm.New(nvm.Config{Words: 1 << 21, Mode: nvm.ModeDRAM}),
		DataSys:   ssys,
		TM:        htm.Default(),
	})
	h := list.NewHandle()
	for i, ts := range events {
		h.Insert(ts, uint64(i)*10)
	}
	fmt.Println("BDL-Skiplist: full ordered scan:")
	list.Ascend(func(k, v uint64) bool {
		fmt.Printf("  t=%d -> %d\n", k, v)
		return true
	})
	if k, v, ok := h.Successor(90002); ok {
		fmt.Printf("skiplist successor(90002) = %d (value %d)\n", k, v)
	}
	h.Close()
	ssys.Stop()
}
