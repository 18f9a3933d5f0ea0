package bdhash

import (
	"math/rand/v2"
	"testing"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

// BenchmarkPrefill is the in-repo probe for set-up cost: what the repo
// benchmark's set-up phase does — a fresh heap, a timer-mode epoch system,
// a table sized for 2^20 keys, 2^19 inserts from one goroutine, Sync — on
// the fast path, with every attempt killed, so each insert ends in a
// fallback session, and on the fast path over the Optane latency model,
// the set-up of the benchmark's write-heavy workload, where the flusher's
// early passes run beside the prefill. The churn cell follows the fast
// prefill with 2^20 operations of a 20/40/40 get/insert/remove mix over
// the whole key space, so removals leave tombstones and inserts take them
// over at full size. One iteration is one whole prefill (and churn); CI
// runs it with -benchtime 1x, EXPERIMENTS.md ("Memory and set-up",
// "Durable sooner", "Short probes") records the numbers.
func BenchmarkPrefill(b *testing.B) {
	const capacity, live = 1 << 20, 1 << 19
	for _, path := range []struct {
		name    string
		cfg     htm.Config
		latency nvm.LatencyProfile
		churn   int
	}{
		{"fast", htm.Config{}, nvm.LatencyProfile{}, 0},
		{"session", htm.Config{SpuriousRate: 1}, nvm.LatencyProfile{}, 0},
		{"optane", htm.Config{}, nvm.OptaneProfile, 0},
		{"churn", htm.Config{}, nvm.LatencyProfile{}, 1 << 20},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := nvm.New(nvm.Config{Words: capacity*4 + 1<<21, Latency: path.latency})
				sys := epoch.New(h, epoch.Config{EpochLength: 50 * time.Millisecond})
				tab := New(sys, htm.New(path.cfg), capacity, 1)
				w := sys.Register()
				for k := uint64(0); k < live; k++ {
					tab.Insert(w, 2*k, k)
				}
				rng := rand.New(rand.NewPCG(uint64(i), 0xc4))
				for j := 0; j < path.churn; j++ {
					k := rng.Uint64N(2 * live)
					switch r := rng.IntN(5); {
					case r == 0:
						tab.Get(k)
					case r <= 2:
						tab.Insert(w, k, uint64(j))
					default:
						tab.Remove(w, k)
					}
				}
				sys.Sync()
				sys.Stop()
				if path.churn == 0 && tab.Len() != live {
					b.Fatalf("Len = %d after prefill", tab.Len())
				}
			}
		})
	}
}
