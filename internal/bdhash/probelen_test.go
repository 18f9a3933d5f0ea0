//go:build !race

// The probe-length guard runs one goroutine through a million operations:
// the race detector has nothing to find in it and would make it a hundred
// times slower, so the race lane skips the file.

package bdhash

import (
	"math/rand/v2"
	"testing"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

// missProbe is the number of slots a lookup of absent key k reads: up to
// and including the first empty slot of its window.
func missProbe(tab *Table, k uint64) int {
	start, _ := tab.probe(k)
	for i := uint64(0); i < probeSlots; i++ {
		if tab.peek(start+i) == 0 {
			return int(i) + 1
		}
	}
	return probeSlots
}

// TestMissProbeStaysShort is the probe-length guard: a table at the repo
// benchmark's 25 % load (2^16 keys) goes through 2^20 operations of a
// 20/40/40 get/insert/remove churn over twice as many keys, and a miss
// must still read at most 5 slots on average, and tombstones may fill at
// most a tenth of the slots (about 6 % is what the cleanup leaves; with no
// cleanup at all they reach 18 %, and lengthen every probe behind them).
func TestMissProbeStaysShort(t *testing.T) {
	const live, ops = 1 << 16, 1 << 20
	h := nvm.New(nvm.Config{Words: 1 << 22})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tab := New(sys, htm.Default(), 2*live, 1)
	w := sys.Register()
	for k := uint64(0); k < live; k++ {
		tab.Insert(w, 2*k, k)
	}
	meanMiss := func() float64 {
		total := 0
		for k := uint64(0); k < live; k++ {
			total += missProbe(tab, 4*live+k)
		}
		return float64(total) / live
	}
	prefilled := meanMiss()
	rng := rand.New(rand.NewPCG(1, 0xc402))
	for i := 0; i < ops; i++ {
		k := rng.Uint64N(2 * live)
		switch r := rng.IntN(5); {
		case r == 0:
			tab.Get(k)
		case r <= 2:
			tab.Insert(w, k, uint64(i))
		default:
			tab.Remove(w, k)
		}
		if i%(1<<14) == 0 {
			sys.Sync()
		}
	}
	churned := meanMiss()
	tombPct := 100 * float64(countTombs(tab)) / float64(tab.nSlots())
	t.Logf("mean slots read by a miss: %.2f after prefill, %.2f after churn; %d keys, tombstones at %.1f %% of %d slots",
		prefilled, churned, tab.Len(), tombPct, tab.nSlots())
	if churned > 5 {
		t.Errorf("a miss reads %.2f slots on average after churn, want <= 5", churned)
	}
	if tombPct > 10 {
		t.Errorf("tombstones fill %.1f %% of the slots after churn, want <= 10 %%", tombPct)
	}
}
