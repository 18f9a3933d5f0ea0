//go:build !race

// Under the race detector sync.Pool drops a quarter of what it is handed,
// so the pooled Tx is rebuilt at random and these pins do not hold; the race
// lane skips the file.

package htm

import "testing"

// Neither path allocates once its pooled state is warm: not a committing
// attempt, not an attempt killed before or inside its body, not one that
// carries an option, not a session, not Run on a dead fast path.
func TestAttemptsAndSessionsDoNotAllocate(t *testing.T) {
	var w [16]uint64
	body := func(tx *Tx) { tx.Store(&w[0], tx.Load(&w[8])+1) }
	clean, spurious := Default(), New(Config{SpuriousRate: 1})
	memtype := New(Config{MemTypeRate: 1, PreWalkResidualRate: 1})
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"commit", func() { clean.Attempt(body) }},
		{"commit with an option", func() { clean.Attempt(body, PreWalked()) }},
		{"injected spurious abort", func() { spurious.Attempt(body) }},
		{"injected memtype abort after a pre-walk", func() { memtype.Attempt(body, PreWalked()) }},
		{"explicit abort", func() { clean.Attempt(func(tx *Tx) { tx.Load(&w[8]); tx.Abort(1) }) }},
		{"session", func() { clean.RunSession(body) }},
		{"abandoned session", func() { clean.RunSession(func(tx *Tx) { tx.Load(&w[8]); tx.Abort(1) }) }},
		{"Run on a tripped TM", func() { spurious.Run(nil, 2, nil, body) }},
		{"Run with a pre-walk", func() { memtype.Run(nil, 2, func() { w[15]++ }, body) }},
	} {
		if n := testing.AllocsPerRun(1000, tc.op); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", tc.name, n)
		}
	}
}
