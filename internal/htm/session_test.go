package htm

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// disjointWords returns n word pointers, each on its own cache line and
// each mapping to a distinct lock-table slot, so tests can reason about
// exactly which lines conflict.
func disjointWords(tb testing.TB, tm *TM, n int) []*uint64 {
	tb.Helper()
	buf := make([]uint64, 8*(4*n+8))
	seen := make(map[uint64]bool)
	var out []*uint64
	for i := 0; i+8 <= len(buf) && len(out) < n; i += 8 {
		p := &buf[i]
		if idx := tm.slotIdx(lineKey(p)); !seen[idx] {
			seen[idx] = true
			out = append(out, p)
		}
	}
	if len(out) < n {
		tb.Fatalf("could not find %d slot-disjoint lines", n)
	}
	return out
}

// The headline property of the slow path: a small transaction on lines the
// session never touched commits while the session is still mid-operation.
func TestDisjointLineProgressDuringFallback(t *testing.T) {
	tm := Default()
	ws := disjointWords(t, tm, 2)
	a, b := ws[0], ws[1]
	inSession := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tm.RunSession(func(tx *Tx) {
			tx.Store(a, tx.Load(a)+1)
			once.Do(func() { close(inSession) })
			<-release
		})
	}()
	<-inSession

	// Progress assertion: disjoint line, slow path in flight.
	if res := tm.Attempt(func(tx *Tx) { tx.Store(b, 7) }); !res.Committed {
		t.Fatalf("disjoint-line transaction aborted during fallback: %+v", res)
	}
	// Conflict assertion: the held line aborts the fast path, and the
	// abort is attributed to the fallback session.
	blockedBefore := tm.Stats().FallbackBlocked
	if res := tm.Attempt(func(tx *Tx) { tx.Store(a, 9) }); res.Committed {
		t.Fatal("transaction on a fallback-held line committed")
	}
	if got := tm.Stats().FallbackBlocked; got <= blockedBefore {
		t.Fatalf("FallbackBlocked = %d, want > %d", got, blockedBefore)
	}
	// The session's write is buffered until it finishes.
	if atomic.LoadUint64(a) != 0 {
		t.Fatal("fallback write visible before session finished")
	}

	close(release)
	wg.Wait()
	if *a != 1 || *b != 7 {
		t.Fatalf("a,b = %d,%d, want 1,7", *a, *b)
	}
	s := tm.Stats()
	if s.FallbackAcquires != 1 || s.FallbackLines == 0 {
		t.Fatalf("session counters: %+v", s)
	}
}

// Fallback reads lock their line too: a transaction cannot slip a write
// between a fallback read and the session's finish (write skew). Once the
// session ends, the slot reverts and the same transaction commits.
func TestFallbackReadLocksLine(t *testing.T) {
	tm := Default()
	a := disjointWords(t, tm, 1)[0]
	inSession := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tm.RunSession(func(tx *Tx) {
			_ = tx.Load(a) // read-only access still locks the line
			once.Do(func() { close(inSession) })
			<-release
		})
	}()
	<-inSession
	if res := tm.Attempt(func(tx *Tx) { tx.Store(a, 5) }); res.Committed {
		t.Fatal("write to a read-locked line committed mid-session")
	}
	close(release)
	wg.Wait()
	if res := tm.Attempt(func(tx *Tx) { tx.Store(a, 5) }); !res.Committed {
		t.Fatalf("write after session release aborted: %+v", res)
	}
	if *a != 5 {
		t.Fatalf("a = %d, want 5", *a)
	}
}

// A session blocked on a line held by another session restarts (releasing
// everything, discarding buffered writes) rather than deadlocking, and
// completes once the holder finishes.
func TestFallbackRestartUnderContention(t *testing.T) {
	tm := Default()
	ws := disjointWords(t, tm, 2)
	a, b := ws[0], ws[1]
	inSession := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // holder: pins a's line, then waits
		defer wg.Done()
		tm.RunSession(func(tx *Tx) {
			_ = tx.Load(a)
			once.Do(func() { close(inSession) })
			<-release
		})
	}()
	<-inSession
	wg.Add(1)
	go func() { // contender: buffers b, then needs a — must restart
		defer wg.Done()
		tm.RunSession(func(tx *Tx) {
			tx.Store(b, 1)
			tx.Store(a, tx.Load(a)+1)
		})
	}()
	for tm.Stats().FallbackRestarts == 0 {
		time.Sleep(time.Millisecond)
	}
	// Restarts discarded the contender's buffered write to b.
	if atomic.LoadUint64(b) != 0 {
		t.Fatal("buffered write leaked across a session restart")
	}
	close(release)
	wg.Wait()
	if *a != 1 || *b != 1 {
		t.Fatalf("a,b = %d,%d, want 1,1", *a, *b)
	}
}

// Property test for the lock-order discipline: concurrent sessions that
// acquire overlapping line sets in adversarial (random, often opposite)
// orders neither deadlock nor lose updates.
func TestSessionLockOrderNoDeadlock(t *testing.T) {
	tm := Default()
	ws := disjointWords(t, tm, 8)
	const goroutines = 4
	const iters = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id)+1, 99))
			for i := 0; i < iters; i++ {
				idxs := rng.Perm(len(ws))[:4]
				tm.RunSession(func(tx *Tx) {
					for _, j := range idxs {
						tx.Store(ws[j], tx.Load(ws[j])+1)
					}
				})
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, p := range ws {
		total += *p
	}
	if total != goroutines*iters*4 {
		t.Fatalf("total = %d, want %d (lost updates)", total, goroutines*iters*4)
	}
}

// Serializability with both paths live on the same lines: transactional
// and session increments must all survive.
func TestMixedTxFallbackSerializable(t *testing.T) {
	tm := Default()
	ws := disjointWords(t, tm, 4)
	const perG = 400
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id)+1, 3))
			for i := 0; i < perG; i++ {
				j := int(rng.Uint64N(uint64(len(ws))))
				k := (j + 1 + int(rng.Uint64N(uint64(len(ws)-1)))) % len(ws)
				for !tm.Attempt(func(tx *Tx) {
					tx.Store(ws[j], tx.Load(ws[j])+1)
					tx.Store(ws[k], tx.Load(ws[k])+1)
				}).Committed {
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id)+100, 5))
			for i := 0; i < perG; i++ {
				j := int(rng.Uint64N(uint64(len(ws))))
				k := (j + 1 + int(rng.Uint64N(uint64(len(ws)-1)))) % len(ws)
				tm.RunSession(func(tx *Tx) {
					tx.Store(ws[j], tx.Load(ws[j])+1)
					tx.Store(ws[k], tx.Load(ws[k])+1)
				})
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, p := range ws {
		total += *p
	}
	if total != 6*perG*2 {
		t.Fatalf("total = %d, want %d", total, 6*perG*2)
	}
}

// Run's policy, one case per way out of the retry loop, with one body
// serving both modes: a clean commit never opens a session; an explicit
// abort returns to the caller from either mode; every other abort —
// capacity included — spends the budget and then exactly one session runs;
// a MemType abort runs the pre-walk and the next attempt is pre-walked.
func TestRun(t *testing.T) {
	store := func(tx *Tx, x *uint64, _ []*uint64) {
		if tx.InSession() {
			tx.Store(x, 2)
		} else {
			tx.Store(x, 1)
		}
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		body     func(tx *Tx, x *uint64, lines []*uint64)
		want     Result
		wantX    uint64
		attempts int64
		sessions int64
		preWalks int
	}{
		{"commit", Config{}, store, Result{Committed: true}, 1, 1, 0, 0},
		{"explicit", Config{}, func(tx *Tx, x *uint64, _ []*uint64) { tx.Store(x, 1); tx.Abort(9) },
			Result{Cause: CauseExplicit, Code: 9}, 0, 1, 0, 0},
		{"explicit in the session", Config{SpuriousRate: 1}, func(tx *Tx, x *uint64, _ []*uint64) { tx.Store(x, 2); tx.Abort(9) },
			Result{Cause: CauseExplicit, Code: 9}, 0, maxRetries, 1, 0},
		{"capacity", Config{MaxWriteLines: 2}, func(tx *Tx, x *uint64, lines []*uint64) {
			for _, p := range lines {
				tx.Store(p, 1)
			}
			tx.Store(x, 2)
		}, Result{Committed: true}, 2, maxRetries, 1, 0},
		{"spurious", Config{SpuriousRate: 1}, store, Result{Committed: true}, 2, maxRetries, 1, 0},
		{"memtype", Config{MemTypeRate: 1}, store, Result{Committed: true}, 1, 2, 0, 1},
		{"memtype past a pre-walk", Config{MemTypeRate: 1, PreWalkResidualRate: 1}, store, Result{Committed: true}, 2, maxRetries, 1, maxRetries - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tm := New(tc.cfg)
			lines := disjointWords(t, tm, 3)
			var x uint64
			preWalks := 0
			res := tm.Run(nil, func() { preWalks++ }, func(tx *Tx) { tc.body(tx, &x, lines) })
			if res != tc.want || x != tc.wantX {
				t.Fatalf("res=%+v x=%d, want %+v and %d", res, x, tc.want, tc.wantX)
			}
			s := tm.Stats()
			if s.Attempts() != tc.attempts || s.FallbackAcquires != tc.sessions || preWalks != tc.preWalks {
				t.Fatalf("attempts=%d sessions=%d pre-walks=%d, want %d, %d and %d",
					s.Attempts(), s.FallbackAcquires, preWalks, tc.attempts, tc.sessions, tc.preWalks)
			}
			if fromSession := tc.want.Cause == CauseExplicit && tc.sessions == 1; fromSession && s.Explicit != 0 {
				t.Fatalf("a session's explicit abort was counted as an attempt outcome: %+v", s)
			}
		})
	}
}

// Abort in session mode abandons the session: every line it locked is back
// at its pre-lock version (so a transaction that read those lines before
// still validates), the buffered writes are dropped, the code comes back,
// and the pooled Tx serves the next session and the next attempt.
func TestSessionAbortLeavesNoTrace(t *testing.T) {
	tm := Default()
	ws := disjointWords(t, tm, 3)
	for _, p := range ws { // give every slot a non-zero version to revert to
		tm.DirectStore(p, 10)
	}
	slot := func(p *uint64) uint64 { return tm.table[tm.slotIdx(lineKey(p))].Load() }
	before := []uint64{slot(ws[0]), slot(ws[1]), slot(ws[2])}
	clock := tm.clock.Load()

	res := tm.RunSession(func(tx *Tx) {
		tx.Store(ws[0], tx.Load(ws[1])+1)
		tx.Store(ws[2], 99)
		for _, p := range ws {
			if slot(p)&1 == 0 {
				t.Error("line not locked mid-session")
			}
		}
		tx.Abort(0x5e)
	})
	if want := (Result{Cause: CauseExplicit, Code: 0x5e}); res != want {
		t.Fatalf("abandoned session returned %+v, want %+v", res, want)
	}
	for i, p := range ws {
		if *p != 10 {
			t.Fatalf("word %d = %d after an abandoned session, want 10", i, *p)
		}
		if got := slot(p); got != before[i] {
			t.Fatalf("slot %d = %#x after an abandoned session, want its pre-lock version %#x", i, got, before[i])
		}
	}
	if tm.clock.Load() != clock {
		t.Fatal("an abandoned session advanced the version clock")
	}
	if s := tm.Stats(); s.Explicit != 0 || s.Attempts() != 0 || s.FallbackAcquires != 1 {
		t.Fatalf("stats after one abandoned session: %+v", s)
	}
	// The same pooled Tx, reused in both modes, starts clean.
	if res := tm.RunSession(func(tx *Tx) { tx.Store(ws[0], tx.Load(ws[0])+1) }); !res.Committed || *ws[0] != 11 || *ws[2] != 10 {
		t.Fatalf("next session: %+v, words %d %d", res, *ws[0], *ws[2])
	}
	if res := tm.Attempt(func(tx *Tx) {
		if tx.InSession() {
			t.Error("attempt on a recycled Tx still in session mode")
		}
		tx.Store(ws[1], tx.Load(ws[0])+1)
	}); !res.Committed || *ws[1] != 12 {
		t.Fatalf("next attempt: %+v, word %d", res, *ws[1])
	}
	if got := tm.held.Load(); got != 0 {
		t.Fatalf("held = %d, want 0", got)
	}
}

// Flush and Fence refuse in a session exactly as in a transaction, so a
// body cannot come to depend on its mode: the session is abandoned with
// CausePersistOp and nothing it buffered is applied.
func TestPersistOpsRefuseInSession(t *testing.T) {
	tm := Default()
	var x uint64
	for name, op := range map[string]func(*Tx){"Flush": (*Tx).Flush, "Fence": (*Tx).Fence} {
		reached := false
		res := tm.RunSession(func(tx *Tx) { tx.Store(&x, 1); op(tx); reached = true })
		if res.Cause != CausePersistOp || res.Committed || reached || x != 0 {
			t.Fatalf("%s inside a session: %+v, reached=%v x=%d", name, res, reached, x)
		}
	}
	if res := tm.Attempt(func(tx *Tx) { tx.Store(&x, 3) }); !res.Committed {
		t.Fatalf("line left locked by a refused session: %+v", res)
	}
}

// DrainCommits is a session's barrier; a transaction attempt cannot wait
// for other commits, so calling it there is a programming error.
func TestDrainCommitsOutsideSessionPanics(t *testing.T) {
	tm := Default()
	defer func() {
		if recover() == nil {
			t.Fatal("DrainCommits in a transaction attempt did not panic")
		}
	}()
	tm.Attempt(func(tx *Tx) { tx.DrainCommits() })
}

// A foreign panic inside a session propagates, and leaves neither a line
// locked nor the escalation mutex held.
func TestUserPanicInSessionReleases(t *testing.T) {
	tm := Default()
	var x uint64
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected user panic to propagate")
			}
		}()
		tm.RunSession(func(tx *Tx) { tx.Store(&x, 1); panic("user bug") })
	}()
	if res := tm.RunSession(func(tx *Tx) { tx.Store(&x, tx.Load(&x)+2) }); !res.Committed || x != 2 {
		t.Fatalf("session after the panic: %+v, x = %d", res, x)
	}
}

// Regression for the drain rewrite: every lock window (commits, direct
// stores, fallback finishes) must balance tm.held back to zero, or a later
// drainCommits spins forever.
func TestHeldCounterBalanced(t *testing.T) {
	tm := Default()
	ws := disjointWords(t, tm, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id)+1, 11))
			for i := 0; i < 200; i++ {
				p := ws[rng.Uint64N(uint64(len(ws)))]
				switch rng.Uint64N(4) {
				case 0:
					tm.Attempt(func(tx *Tx) { tx.Store(p, tx.Load(p)+1) })
				case 1:
					tm.Attempt(func(tx *Tx) { tx.Abort(1) })
				case 2:
					tm.DirectStore(p, 1)
				default:
					tm.RunSession(func(tx *Tx) { tx.Store(p, tx.Load(p)+1) })
				}
			}
		}(g)
	}
	wg.Wait()
	if got := tm.held.Load(); got != 0 {
		t.Fatalf("held = %d after quiescence, want 0", got)
	}
}

// drainCommits must block while a lock window is open and return once it
// closes.
func TestDrainCommitsWaitsForWindow(t *testing.T) {
	tm := Default()
	var x uint64
	slot := tm.lockSlotDirect(&x)
	done := make(chan struct{})
	go func() { tm.drainCommits(); close(done) }()
	select {
	case <-done:
		t.Fatal("drainCommits returned with a lock window open")
	case <-time.After(50 * time.Millisecond):
	}
	tm.unlockSlotDirect(slot)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drainCommits never returned after the window closed")
	}
}

// Regression: drainCommits used to scan all 1<<TableBits slots per call.
// With a large table and an idle TM, a burst of drains must still be
// effectively free (one counter read each); the old scan would take
// minutes here.
func TestDrainCommitsIsCounterRead(t *testing.T) {
	tm := New(Config{TableBits: 22})
	start := time.Now()
	for i := 0; i < 50000; i++ {
		tm.drainCommits()
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("50k idle drains took %v; drain is scanning the table again", el)
	}
}
