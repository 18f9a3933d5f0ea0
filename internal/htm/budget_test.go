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
	const trip = 4 * maxRetries // futile aborts in a row that exhaust the budget
	type step struct {
		cause AbortCause
		n     int
	}
	for _, tc := range []struct {
		name  string
		steps []step
		want  int
	}{
		{"fresh", nil, maxRetries},
		{"one short of tripping", []step{{CauseSpurious, trip - 1}}, maxRetries},
		{"spurious trips", []step{{CauseSpurious, trip}}, 1},
		{"memtype trips", []step{{CauseMemType, trip}}, 1},
		{"capacity trips", []step{{CauseCapacity, trip}}, 1},
		{"the three add up", []step{{CauseSpurious, trip / 2}, {CauseCapacity, trip / 4}, {CauseMemType, trip / 4}}, 1},
		{"conflicts never trip", []step{{CauseConflict, 2 * trip}}, maxRetries},
		{"explicit aborts never trip", []step{{CauseExplicit, 2 * trip}}, maxRetries},
		{"conflicts and explicit aborts do not count", []step{{CauseSpurious, trip / 2}, {CauseConflict, 20}, {CauseExplicit, 20}, {CauseSpurious, trip/2 - 1}}, maxRetries},
		{"nor do they reset", []step{{CauseSpurious, trip / 2}, {CauseConflict, 20}, {CauseExplicit, 20}, {CauseSpurious, trip / 2}}, 1},
		{"a commit resets the streak", []step{{CauseSpurious, trip - 1}, {CauseNone, 1}, {CauseSpurious, trip - 1}}, maxRetries},
		{"one commit restores a tripped budget", []step{{CauseSpurious, trip + 20}, {CauseNone, 1}}, maxRetries},
		{"and it can trip again", []step{{CauseSpurious, trip + 20}, {CauseNone, 1}, {CauseCapacity, trip}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newOutcomeDriver(t)
			for _, s := range tc.steps {
				d.attempt(s.cause, s.n)
			}
			if got := d.tm.budget(); got != tc.want {
				t.Fatalf("budget() = %d, want %d", got, tc.want)
			}
		})
	}
}

// A tripped TM costs an operation one probe attempt, not a budget; the
// first operations on a fresh TM still spend theirs in full.
func TestRunOnTrippedTM(t *testing.T) {
	tm := New(Config{SpuriousRate: 1})
	var x uint64
	run := func() {
		tm.Run(nil, nil, func(tx *Tx) { tx.Store(&x, tx.Load(&x)+1) })
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
// At 99 % injected aborts the streak both trips and clears along the way.
func TestBudgetConcurrent(t *testing.T) {
	tm := New(Config{SpuriousRate: 0.99, Seed: 3})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var x [8]uint64
			for i := 0; i < 5000; i++ {
				tm.Attempt(func(tx *Tx) { tx.Store(&x[0], uint64(i)) })
				if b := tm.budget(); b != 1 && b != maxRetries {
					t.Errorf("budget() = %d", b)
					return
				}
			}
		}()
	}
	wg.Wait()
	var x uint64
	for !tm.Attempt(func(tx *Tx) { tx.Store(&x, 1) }).Committed {
	}
	if got := tm.budget(); got != maxRetries {
		t.Fatalf("budget() = %d after a commit", got)
	}
}
