//go:build !race

// Under the race detector sync.Pool drops a quarter of what it is handed,
// so htm's pooled attempts and sessions are rebuilt at random and these pins
// do not hold; the race lane skips the file.

package bdhash

import (
	"testing"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

// No table operation allocates in steady state, on either path: not on the
// fast path of a healthy TM, and not on the session path of one whose fast
// path is dead (SpuriousRate 1, budget tripped), where an operation is one
// doomed probe attempt plus one pooled session. What is left is amortised
// growth — the worker's epoch buffers, one image page per slab — which
// rounds to zero per operation.
func TestOperationsDoNotAllocate(t *testing.T) {
	const runs = 500
	for _, path := range []struct {
		name string
		cfg  htm.Config
	}{
		{"fast path", htm.Config{}},
		{"session path", htm.Config{SpuriousRate: 1}},
	} {
		t.Run(path.name, func(t *testing.T) {
			h := nvm.New(nvm.Config{Words: 1 << 20})
			sys := epoch.New(h, epoch.Config{Manual: true})
			tm := htm.New(path.cfg)
			tab := New(sys, tm, 1<<14, 1)
			w := sys.Register()
			for k := uint64(0); k < 2*runs; k++ {
				tab.Insert(w, k, k) // also trips the dead TM's budget
			}
			fresh, victim, probe := uint64(1<<20), uint64(0), uint64(runs)
			for _, tc := range []struct {
				name string
				op   func()
			}{
				{"Insert (new key)", func() { tab.Insert(w, fresh, 1); fresh++ }},
				{"Insert (same key, same epoch)", func() { tab.Insert(w, 1<<20, 2) }},
				{"Remove", func() { tab.Remove(w, victim); victim++ }},
				{"GetW(nil)", func() { tab.GetW(nil, probe); probe++ }},
				{"GetW(w)", func() { tab.GetW(w, probe); probe-- }},
			} {
				before := tm.Stats()
				if n := testing.AllocsPerRun(runs, tc.op); n != 0 {
					t.Errorf("%s: %v allocs per run, want 0", tc.name, n)
				}
				if s := tm.Stats().Sub(before); (s.FallbackAcquires != 0) != (path.cfg.SpuriousRate == 1) {
					t.Errorf("%s took the wrong path: %+v", tc.name, s)
				}
			}
		})
	}
}
