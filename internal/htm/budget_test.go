package htm

import (
	"sync"
	"testing"
)

// outcomeDriver forces real attempts on one TM to end in a chosen way, so
// the budget can be tested against outcome sequences rather than against
// its own counter.
type outcomeDriver struct {
	t     *testing.T
	tm    *TM
	lines []*uint64 // three slot-disjoint lines; the TM's write set holds two
}

func newOutcomeDriver(t *testing.T) *outcomeDriver {
	tm := New(Config{MaxWriteLines: 2})
	return &outcomeDriver{t: t, tm: tm, lines: disjointWords(t, tm, 3)}
}

// attempt runs n attempts that each end in cause c.
func (d *outcomeDriver) attempt(c AbortCause, n int) {
	d.t.Helper()
	tm := d.tm
	body := func(tx *Tx) { tx.Store(d.lines[0], tx.Load(d.lines[0])+1) }
	tm.cfg.SpuriousRate, tm.cfg.MemTypeRate = 0, 0
	switch c {
	case CauseSpurious:
		tm.cfg.SpuriousRate = 1
	case CauseMemType:
		tm.cfg.MemTypeRate = 1
	case CauseCapacity:
		body = func(tx *Tx) {
			for _, p := range d.lines {
				tx.Store(p, 1)
			}
		}
	case CauseExplicit:
		body = func(tx *Tx) { tx.Abort(7) }
	case CauseConflict:
		// Somebody else holds the line: lock its slot by hand.
		slot := &tm.table[tm.slotIdx(lineKey(d.lines[0]))]
		prev := slot.Load()
		slot.Store(prev | 1)
		defer slot.Store(prev)
	}
	for i := 0; i < n; i++ {
		if res := tm.Attempt(body); res.Cause != c {
			d.t.Fatalf("forced %v, attempt ended %+v", c, res)
		}
	}
}

func TestBudget(t *testing.T) {
	const limit = 3 // trips at 4*limit = 12 futile aborts in a row
	type step struct {
		cause AbortCause
		n     int
	}
	for _, tc := range []struct {
		name  string
		steps []step
		want  int
	}{
		{"fresh", nil, limit},
		{"one short of tripping", []step{{CauseSpurious, 11}}, limit},
		{"spurious trips", []step{{CauseSpurious, 12}}, 1},
		{"memtype trips", []step{{CauseMemType, 12}}, 1},
		{"capacity trips", []step{{CauseCapacity, 12}}, 1},
		{"the three add up", []step{{CauseSpurious, 4}, {CauseCapacity, 4}, {CauseMemType, 4}}, 1},
		{"conflicts never trip", []step{{CauseConflict, 40}}, limit},
		{"explicit aborts never trip", []step{{CauseExplicit, 40}}, limit},
		{"conflicts and explicit aborts do not count", []step{{CauseSpurious, 6}, {CauseConflict, 20}, {CauseExplicit, 20}, {CauseSpurious, 5}}, limit},
		{"nor do they reset", []step{{CauseSpurious, 6}, {CauseConflict, 20}, {CauseExplicit, 20}, {CauseSpurious, 6}}, 1},
		{"a commit resets the streak", []step{{CauseSpurious, 11}, {CauseNone, 1}, {CauseSpurious, 11}}, limit},
		{"one commit restores a tripped budget", []step{{CauseSpurious, 30}, {CauseNone, 1}}, limit},
		{"and it can trip again", []step{{CauseSpurious, 30}, {CauseNone, 1}, {CauseCapacity, 12}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newOutcomeDriver(t)
			for _, s := range tc.steps {
				d.attempt(s.cause, s.n)
			}
			if got := d.tm.Budget(limit); got != tc.want {
				t.Fatalf("Budget(%d) = %d, want %d", limit, got, tc.want)
			}
		})
	}

	// The threshold scales with the caller's limit: the same streak that
	// exhausts a budget of 3 leaves a budget of 4 whole.
	d := newOutcomeDriver(t)
	d.attempt(CauseSpurious, 12)
	if a, b := d.tm.Budget(3), d.tm.Budget(4); a != 1 || b != 4 {
		t.Fatalf("after 12 futile aborts Budget(3), Budget(4) = %d, %d, want 1, 4", a, b)
	}
}

// A tripped TM costs an operation one probe attempt, not a budget; the
// first operations on a fresh TM still spend theirs in full.
func TestRunOnTrippedTM(t *testing.T) {
	const maxRetries = 3
	tm := New(Config{SpuriousRate: 1})
	var x uint64
	run := func() {
		tm.Run(nil, maxRetries, nil, func(tx *Tx) { tx.Store(&x, tx.Load(&x)+1) })
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if s := tm.Stats(); s.Attempts() != 4*maxRetries || s.FallbackAcquires != 4 {
		t.Fatalf("first four runs: %d attempts, %d sessions, want %d and 4", s.Attempts(), s.FallbackAcquires, 4*maxRetries)
	}
	before := tm.Stats()
	for i := 0; i < 100; i++ {
		run()
	}
	if s := tm.Stats().Sub(before); s.Attempts() != 100 || s.FallbackAcquires != 100 {
		t.Fatalf("100 runs on a tripped TM: %d attempts, %d sessions, want 100 and 100", s.Attempts(), s.FallbackAcquires)
	}
	if x != 104 {
		t.Fatalf("x = %d after 104 sessions", x)
	}
}

// Attempts racing on the streak counter (race lane): whatever interleaving
// of futile aborts and commits the goroutines produced, the answer is one
// of the two legal ones, and a commit after the dust settles restores it.
func TestBudgetConcurrent(t *testing.T) {
	const limit = 2
	tm := New(Config{SpuriousRate: 0.5, Seed: 3})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var x [8]uint64
			for i := 0; i < 5000; i++ {
				tm.Attempt(func(tx *Tx) { tx.Store(&x[0], uint64(i)) })
				if b := tm.Budget(limit); b != 1 && b != limit {
					t.Errorf("Budget(%d) = %d", limit, b)
					return
				}
			}
		}()
	}
	wg.Wait()
	var x uint64
	for !tm.Attempt(func(tx *Tx) { tx.Store(&x, 1) }).Committed {
	}
	if got := tm.Budget(limit); got != limit {
		t.Fatalf("Budget(%d) = %d after a commit", limit, got)
	}
}
