package htm

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"bdhtm/internal/nvm"
)

func TestCommitMakesWritesVisible(t *testing.T) {
	tm := Default()
	var x, y uint64
	res := tm.Attempt(func(tx *Tx) {
		tx.Store(&x, 1)
		tx.Store(&y, 2)
	})
	if !res.Committed {
		t.Fatalf("attempt aborted: %v", res.Cause)
	}
	if x != 1 || y != 2 {
		t.Fatalf("x,y = %d,%d after commit, want 1,2", x, y)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	tm := Default()
	var x uint64
	res := tm.Attempt(func(tx *Tx) {
		tx.Store(&x, 99)
		tx.Abort(7)
	})
	if res.Committed {
		t.Fatal("expected abort")
	}
	if res.Cause != CauseExplicit || res.Code != 7 {
		t.Fatalf("got cause %v code %d, want explicit/7", res.Cause, res.Code)
	}
	if x != 0 {
		t.Fatalf("x = %d after abort, want 0 (no speculative leak)", x)
	}
}

func TestReadOwnWrites(t *testing.T) {
	tm := Default()
	var x uint64 = 10
	res := tm.Attempt(func(tx *Tx) {
		tx.Store(&x, 20)
		if got := tx.Load(&x); got != 20 {
			t.Errorf("read-own-write = %d, want 20", got)
		}
	})
	if !res.Committed {
		t.Fatalf("attempt aborted: %v", res.Cause)
	}
}

func TestWriteCapacityAbort(t *testing.T) {
	tm := New(Config{MaxWriteLines: 4})
	// Each word in its own line.
	words := make([]uint64, 64*8)
	res := tm.Attempt(func(tx *Tx) {
		for i := 0; i < 64; i++ {
			tx.Store(&words[i*8], 1)
		}
	})
	if res.Committed || res.Cause != CauseCapacity {
		t.Fatalf("got %+v, want capacity abort", res)
	}
	for i := range words {
		if words[i] != 0 {
			t.Fatal("capacity abort leaked speculative state")
		}
	}
}

func TestReadCapacityAbort(t *testing.T) {
	tm := New(Config{MaxReadLines: 4})
	words := make([]uint64, 64*8)
	res := tm.Attempt(func(tx *Tx) {
		for i := 0; i < 64; i++ {
			tx.Load(&words[i*8])
		}
	})
	if res.Committed || res.Cause != CauseCapacity {
		t.Fatalf("got %+v, want capacity abort", res)
	}
}

func TestPersistOpAborts(t *testing.T) {
	tm := Default()
	var flushed, fenced bool
	res := tm.Attempt(func(tx *Tx) { tx.Flush(); flushed = true })
	if res.Cause != CausePersistOp || flushed {
		t.Fatalf("Flush inside txn: got %+v", res)
	}
	res = tm.Attempt(func(tx *Tx) { tx.Fence(); fenced = true })
	if res.Cause != CausePersistOp || fenced {
		t.Fatalf("Fence inside txn: got %+v", res)
	}
}

func TestSpuriousInjection(t *testing.T) {
	tm := New(Config{SpuriousRate: 1})
	res := tm.Attempt(func(tx *Tx) {})
	if res.Cause != CauseSpurious {
		t.Fatalf("got %+v, want spurious abort", res)
	}
}

func TestMemTypeInjectionAndPreWalk(t *testing.T) {
	tm := New(Config{MemTypeRate: 1, PreWalkResidualRate: 0})
	if res := tm.Attempt(func(tx *Tx) {}); res.Cause != CauseMemType {
		t.Fatalf("got %+v, want memtype abort", res)
	}
	if res := tm.Attempt(func(tx *Tx) {}, PreWalked()); !res.Committed {
		t.Fatalf("pre-walked attempt should commit, got %+v", res)
	}
}

func TestUserPanicPropagates(t *testing.T) {
	tm := Default()
	defer func() {
		if recover() == nil {
			t.Fatal("expected user panic to propagate")
		}
	}()
	tm.Attempt(func(tx *Tx) { panic("user bug") })
}

// Transfer invariant: concurrent transfers between accounts must conserve
// the total. This is the classic opacity/atomicity stress test.
func TestConcurrentTransfersConserveTotal(t *testing.T) {
	tm := Default()
	const nAcct = 64
	const perAcct = 1000
	accounts := make([]uint64, nAcct*8) // one account per line
	acct := func(i int) *uint64 { return &accounts[i*8] }
	for i := 0; i < nAcct; i++ {
		*acct(i) = perAcct
	}
	var wg sync.WaitGroup
	var commits atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id)+1, 7))
			for i := 0; i < 3000; i++ {
				from := int(rng.Uint64N(nAcct))
				to := int(rng.Uint64N(nAcct))
				if from == to {
					continue
				}
				amt := rng.Uint64N(10)
				for {
					res := tm.Attempt(func(tx *Tx) {
						f := tx.Load(acct(from))
						if f < amt {
							tx.Abort(1)
						}
						tx.Store(acct(from), f-amt)
						tx.Store(acct(to), tx.Load(acct(to))+amt)
					})
					if res.Committed {
						commits.Add(1)
						break
					}
					if res.Cause == CauseExplicit {
						break // insufficient funds; skip
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < nAcct; i++ {
		total += *acct(i)
	}
	if total != nAcct*perAcct {
		t.Fatalf("total = %d, want %d (commits=%d)", total, nAcct*perAcct, commits.Load())
	}
	if commits.Load() == 0 {
		t.Fatal("no transfers committed")
	}
}

func TestConflictingWritersSerialize(t *testing.T) {
	tm := Default()
	var counter uint64
	var wg sync.WaitGroup
	const goroutines = 8
	const perG = 2000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for {
					res := tm.Attempt(func(tx *Tx) {
						tx.Store(&counter, tx.Load(&counter)+1)
					})
					if res.Committed {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*perG {
		t.Fatalf("counter = %d, want %d", counter, goroutines*perG)
	}
}

// A non-transactional DirectStore is visible to conflict detection: a
// transaction that read the line before the store fails validation.
func TestFallbackWritesAbortActiveTransactions(t *testing.T) {
	tm := Default()
	var data uint64
	started := make(chan struct{})
	proceed := make(chan struct{})
	var res Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = tm.Attempt(func(tx *Tx) {
			_ = tx.Load(&data)
			close(started)
			<-proceed
			// Use the stale read; commit-time validation must fail.
			tx.Store(&data, tx.Load(&data)+100)
		})
	}()
	<-started
	tm.DirectStore(&data, 5)
	close(proceed)
	wg.Wait()
	if res.Committed {
		t.Fatalf("transaction overlapping a direct store committed; data=%d", data)
	}
	if data != 5 {
		t.Fatalf("data = %d, want 5", data)
	}
}

func TestNVMWordTransactions(t *testing.T) {
	tm := Default()
	h := nvm.New(nvm.Config{Words: 1 << 12})
	res := tm.Attempt(func(tx *Tx) {
		tx.StoreAddr(h, 100, 42)
		if got := tx.LoadAddr(h, 100); got != 42 {
			t.Errorf("read-own-write via heap = %d", got)
		}
	})
	if !res.Committed {
		t.Fatalf("aborted: %v", res.Cause)
	}
	if got := h.Load(100); got != 42 {
		t.Fatalf("heap word = %d, want 42", got)
	}
	// The committed store went through the heap, so the line is dirty and
	// flushable — speculative state never leaked to the persistent image.
	if got := h.PersistedLoad(100); got != 0 {
		t.Fatalf("persistent image = %d before flush, want 0", got)
	}
	h.Persist(100)
	if got := h.PersistedLoad(100); got != 42 {
		t.Fatalf("persistent image = %d after flush, want 42", got)
	}
}

func TestAbortedNVMWritesNeverReachHeap(t *testing.T) {
	tm := Default()
	h := nvm.New(nvm.Config{Words: 1 << 12})
	tm.Attempt(func(tx *Tx) {
		tx.StoreAddr(h, 200, 7)
		tx.Abort(1)
	})
	if got := h.Load(200); got != 0 {
		t.Fatalf("aborted speculative store reached heap: %d", got)
	}
	if h.DirtyLine(200) {
		t.Fatal("aborted store dirtied the heap line")
	}
}

func TestLineGranularityConflicts(t *testing.T) {
	tm := Default()
	// Two words on the same cache line: writing one from the fallback
	// path must invalidate a transactional read of the other.
	words := make([]uint64, 8)
	started := make(chan struct{})
	proceed := make(chan struct{})
	var res Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = tm.Attempt(func(tx *Tx) {
			_ = tx.Load(&words[0])
			close(started)
			<-proceed
			tx.Store(&words[1], tx.Load(&words[0])+1)
		})
	}()
	<-started
	tm.DirectStore(&words[1], 99) // same line as words[0]
	close(proceed)
	wg.Wait()
	if res.Committed {
		t.Fatal("expected line-granularity conflict abort")
	}
}

func TestStatsAccounting(t *testing.T) {
	tm := Default()
	var x uint64
	tm.Attempt(func(tx *Tx) { tx.Store(&x, 1) })
	tm.Attempt(func(tx *Tx) { tx.Abort(3) })
	s := tm.Stats()
	if s.Commits != 1 || s.Explicit != 1 || s.Attempts() != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.CommitRate(); got != 0.5 {
		t.Fatalf("CommitRate = %f, want 0.5", got)
	}
	if got := s.Rate(CauseExplicit); got != 0.5 {
		t.Fatalf("Rate(explicit) = %f, want 0.5", got)
	}
}

func TestCauseString(t *testing.T) {
	for c := CauseNone; c < numCauses; c++ {
		if c.String() == "" {
			t.Errorf("cause %d has empty string", int(c))
		}
	}
}

// Property: a snapshot read of multiple words inside one transaction is
// consistent even under a concurrent writer flipping them together.
func TestQuickSnapshotConsistency(t *testing.T) {
	tm := Default()
	words := make([]uint64, 4*8)
	w := func(i int) *uint64 { return &words[i*8] }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			v++
			for {
				res := tm.Attempt(func(tx *Tx) {
					for i := 0; i < 4; i++ {
						tx.Store(w(i), v)
					}
				})
				if res.Committed {
					break
				}
			}
		}
	}()
	f := func(_ uint8) bool {
		var vals [4]uint64
		for {
			res := tm.Attempt(func(tx *Tx) {
				for i := 0; i < 4; i++ {
					vals[i] = tx.Load(w(i))
				}
			})
			if res.Committed {
				break
			}
		}
		return vals[0] == vals[1] && vals[1] == vals[2] && vals[2] == vals[3]
	}
	err := quick.Check(f, &quick.Config{MaxCount: 200})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}
