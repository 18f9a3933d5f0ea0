package bdhash

import (
	"testing"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

// BenchmarkPrefill is the in-repo probe for set-up cost: what the repo
// benchmark's set-up phase does — a fresh heap, a timer-mode epoch system,
// a table sized for 2^20 keys, 2^19 inserts from one goroutine, Sync — on
// the fast path and with every attempt killed, so each insert ends in a
// fallback session. One iteration is one whole prefill; CI runs it with
// -benchtime 1x, EXPERIMENTS.md ("Memory and set-up") records the numbers.
func BenchmarkPrefill(b *testing.B) {
	const capacity, live = 1 << 20, 1 << 19
	for _, path := range []struct {
		name string
		cfg  htm.Config
	}{
		{"fast", htm.Config{}},
		{"session", htm.Config{SpuriousRate: 1}},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := nvm.New(nvm.Config{Words: capacity*4 + 1<<21})
				sys := epoch.New(h, epoch.Config{EpochLength: 50 * time.Millisecond})
				tab := New(sys, htm.New(path.cfg), capacity, 1)
				w := sys.Register()
				for k := uint64(0); k < live; k++ {
					tab.Insert(w, 2*k, k)
				}
				sys.Sync()
				sys.Stop()
				if tab.Len() != live {
					b.Fatalf("Len = %d after prefill", tab.Len())
				}
			}
		})
	}
}
