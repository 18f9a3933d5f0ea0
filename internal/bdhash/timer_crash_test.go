package bdhash

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

// keyState is what a key reads as: absent, or present with a value.
type keyState struct {
	ok bool
	v  uint64
}

// keyWrite is one completed write and the epoch it committed in.
type keyWrite struct {
	state keyState
	epoch uint64
}

// legalAfterCrash is the crash drill's per-key rule: recovery leaves
// exactly the last write at or below the recovered watermark (the base
// state if there is none), or one of the writes above it.
func legalAfterCrash(base keyState, ws []keyWrite, watermark uint64, got keyState) bool {
	durable := base
	for _, w := range ws {
		if w.epoch <= watermark {
			durable = w.state
		}
	}
	if got == durable {
		return true
	}
	for _, w := range ws {
		if w.epoch > watermark && got == w.state {
			return true
		}
	}
	return false
}

// TestTimerModeCrashWindow crash-tests the default path end to end: a
// real advancer clock, a live flusher goroutine, backpressure, early write-backs,
// and Stop leaving a queued flush undrained. Four workers, each owning a
// key range, write strictly increasing versions; at a seeded random moment
// they stop and the power fails with the advancer and flusher wherever the
// clock caught them. Every recovery must land within the window and leave
// every key in a state its history allows. The recovered system runs the
// same clock, so the post-recovery catch-up is under test too. The Optane
// cell charges the latency profile's write-back costs, so the flusher's
// measured per-block cost puts the early threshold within reach of every
// epoch and the workers ring it for early passes; it must see some. The
// forced cell adds a goroutine taking early passes back to back, the worst
// case for an in-place update that forgets to track its block again.
func TestTimerModeCrashWindow(t *testing.T) {
	for _, cell := range []struct {
		name          string
		latency       nvm.LatencyProfile
		forced        bool
		heaps, cycles int
	}{
		{"dram", nvm.LatencyProfile{}, false, 5, 12}, // 60 crashes
		{"optane", nvm.OptaneProfile, false, 3, 10},  // 30 crashes
		{"forced", nvm.LatencyProfile{}, true, 3, 10},
	} {
		t.Run(cell.name, func(t *testing.T) {
			early := timerCrashWindow(t, cell.latency, cell.forced, cell.heaps, cell.cycles)
			// Under the race detector the workers are too slow for an epoch
			// to track the 64 blocks the flusher needs to time a write-back
			// over.
			if cell.latency != (nvm.LatencyProfile{}) && early == 0 && !raceEnabled {
				t.Fatal("no early write-back in timer mode under the Optane profile")
			}
		})
	}
}

// timerCrashWindow runs the drill on heaps fresh heaps of cycles crashes
// each and returns how many blocks the crashed systems wrote back early.
func timerCrashWindow(t *testing.T, latency nvm.LatencyProfile, forced bool, heaps, cycles int) (early int64) {
	const (
		workers  = 4
		keysPerW = 24
		capacity = 1 << 10
	)
	cfg := epoch.Config{EpochLength: 200 * time.Microsecond}
	for hi := 0; hi < heaps; hi++ {
		seed := 0x71c0de + uint64(hi)
		rng := rand.New(rand.NewPCG(seed, 0xbd))
		h := nvm.New(nvm.Config{Words: 1 << 18, Latency: latency})
		sys := epoch.New(h, cfg)
		tab := New(sys, htm.Default(), capacity, 1)
		base := make(map[uint64]keyState)
		var version atomic.Uint64 // strictly increasing across cycles

		for c := 0; c < cycles; c++ {
			hist := make([]map[uint64][]keyWrite, workers)
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int, wseed uint64) {
					defer wg.Done()
					wk := sys.Register()
					defer sys.Release(wk)
					r := rand.New(rand.NewPCG(wseed, uint64(w)))
					mine := make(map[uint64][]keyWrite)
					for !stop.Load() {
						k := uint64(w*keysPerW) + r.Uint64N(keysPerW)
						if r.Uint64N(4) == 0 {
							tab.Remove(wk, k)
							mine[k] = append(mine[k], keyWrite{keyState{}, wk.OpEpoch()})
						} else {
							v := version.Add(1)
							tab.Insert(wk, k, v)
							mine[k] = append(mine[k], keyWrite{keyState{true, v}, wk.OpEpoch()})
						}
					}
					hist[w] = mine
				}(w, rng.Uint64())
			}
			if forced {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						sys.FlushEarly()
					}
				}()
			}
			time.Sleep(time.Duration(200+rng.Uint64N(1800)) * time.Microsecond)
			stop.Store(true)
			wg.Wait()

			sys.Stop() // freeze the clock so the crash epoch can be read
			crashEpoch := sys.GlobalEpoch()
			early += sys.Stats().EarlyFlushedBlocks
			evict := []float64{0, 0.5, 1}[rng.Uint64N(3)]
			sys.SimulateCrash(nvm.CrashOptions{EvictFraction: evict, Seed: rng.Uint64() | 1})
			// The recovered system's advancer moves PersistedEpoch at once;
			// the boundary recovery judges by is the media's watermark.
			watermark := h.Load(epoch.WatermarkAddr)
			if watermark+2 < crashEpoch {
				t.Fatalf("seed %#x cycle %d: window violated: recovered to %d after a crash in epoch %d",
					seed, c, watermark, crashEpoch)
			}
			var recs []epoch.BlockRecord
			sys = epoch.Recover(h, cfg, func(r epoch.BlockRecord) { recs = append(recs, r) })
			tab = New(sys, htm.Default(), capacity, 1)
			for _, r := range recs {
				tab.RebuildBlock(r)
			}

			for w := 0; w < workers; w++ {
				for k := uint64(w * keysPerW); k < uint64((w+1)*keysPerW); k++ {
					v, ok := tab.Get(k)
					got := keyState{ok, v}
					if !legalAfterCrash(base[k], hist[w][k], watermark, got) {
						t.Fatalf("seed %#x cycle %d (evict %.1f, crash epoch %d, watermark %d): key %d recovered as %+v; base %+v, writes %+v",
							seed, c, evict, crashEpoch, watermark, k, got, base[k], hist[w][k])
					}
					base[k] = got
				}
			}
		}
		sys.Stop()
	}
	return early
}
