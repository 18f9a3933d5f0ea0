package mwcas

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

// arena hands out word ranges from the top of the heap's usable area.
type arena struct {
	h    *nvm.Heap
	next nvm.Addr
}

func newArena(words int) *arena {
	return &arena{h: nvm.New(nvm.Config{Words: words}), next: nvm.RootWords}
}

func (a *arena) alloc(words int) nvm.Addr {
	b := a.next
	a.next += nvm.Addr(words)
	return b
}

func TestMwWR(t *testing.T) {
	a := newArena(1 << 12)
	base := a.alloc(8)
	MwWR(a.h, []Entry{{Addr: base, New: 1}, {Addr: base + 1, New: 2}})
	if a.h.Load(base) != 1 || a.h.Load(base+1) != 2 {
		t.Fatal("MwWR did not write")
	}
}

func TestHTMMwCASSwapsAtomically(t *testing.T) {
	a := newArena(1 << 12)
	tm := htm.Default()
	m := NewHTMMwCAS(a.h, tm)
	w1, w2 := a.alloc(8), a.alloc(8)
	a.h.Store(w1, 10)
	a.h.Store(w2, 20)
	if !m.Apply([]Entry{{w1, 10, 11}, {w2, 20, 21}}) {
		t.Fatal("Apply with correct olds failed")
	}
	if m.Read(w1) != 11 || m.Read(w2) != 21 {
		t.Fatal("values not swapped")
	}
	if m.Apply([]Entry{{w1, 10, 12}, {w2, 21, 22}}) {
		t.Fatal("Apply with stale old succeeded")
	}
	if m.Read(w2) != 21 {
		t.Fatal("partial update leaked on failed Apply")
	}
}

func descEngine(t *testing.T, persist bool, threads int) (*arena, *Desc) {
	t.Helper()
	a := newArena(1 << 16)
	d := NewDesc(a.h, persist, threads, a.alloc)
	return a, d
}

func TestDescApplySuccessAndFailure(t *testing.T) {
	for _, persist := range []bool{false, true} {
		a, d := descEngine(t, persist, 1)
		w1, w2, w3 := a.alloc(8), a.alloc(8), a.alloc(8)
		a.h.Store(w1, 1)
		a.h.Store(w2, 2)
		a.h.Store(w3, 3)
		if !d.Apply(0, []Entry{{w1, 1, 10}, {w2, 2, 20}, {w3, 3, 30}}) {
			t.Fatalf("persist=%v: Apply failed", persist)
		}
		if d.Read(w1) != 10 || d.Read(w2) != 20 || d.Read(w3) != 30 {
			t.Fatalf("persist=%v: wrong values after success", persist)
		}
		if d.Apply(0, []Entry{{w1, 10, 100}, {w2, 999, 200}}) {
			t.Fatalf("persist=%v: Apply with bad old succeeded", persist)
		}
		if d.Read(w1) != 10 {
			t.Fatalf("persist=%v: failed Apply leaked a partial write", persist)
		}
	}
}

func TestDescDescriptorRecycling(t *testing.T) {
	a, d := descEngine(t, false, 1)
	w := a.alloc(8)
	for i := uint64(0); i < 100; i++ {
		if !d.Apply(0, []Entry{{w, i, i + 1}}) {
			t.Fatalf("iteration %d failed", i)
		}
	}
	if d.Read(w) != 100 {
		t.Fatalf("value = %d", d.Read(w))
	}
}

func TestPMwCASPersistTraffic(t *testing.T) {
	a, d := descEngine(t, true, 1)
	w1, w2 := a.alloc(8), a.alloc(8)
	before := a.h.Stats()
	d.Apply(0, []Entry{{w1, 0, 1}, {w2, 0, 2}})
	delta := a.h.Stats().Sub(before)
	// Descriptor fill + 2 installs + status + 2 final swaps: the protocol
	// must flush many times per operation (the paper's Sec. 4.2 point).
	if delta.Flushes < 6 {
		t.Fatalf("PMwCAS issued only %d flushes", delta.Flushes)
	}
	// The volatile variant must flush nothing.
	a2, d2 := descEngine(t, false, 1)
	v1, v2 := a2.alloc(8), a2.alloc(8)
	before = a2.h.Stats()
	d2.Apply(0, []Entry{{v1, 0, 1}, {v2, 0, 2}})
	if delta := a2.h.Stats().Sub(before); delta.Flushes != 0 {
		t.Fatalf("volatile MwCAS issued %d flushes", delta.Flushes)
	}
}

func TestPMwCASSurvivesCrashAfterApply(t *testing.T) {
	a, d := descEngine(t, true, 1)
	w1, w2 := a.alloc(8), a.alloc(8)
	d.Apply(0, []Entry{{w1, 0, 7}, {w2, 0, 8}})
	a.h.Crash(nvm.CrashOptions{})
	if a.h.Load(w1) != 7 || a.h.Load(w2) != 8 {
		t.Fatalf("PMwCAS results lost: %d %d", a.h.Load(w1), a.h.Load(w2))
	}
}

func TestVolatileMwCASLostAtCrash(t *testing.T) {
	a, d := descEngine(t, false, 1)
	w := a.alloc(8)
	d.Apply(0, []Entry{{w, 0, 7}})
	a.h.Crash(nvm.CrashOptions{})
	if a.h.Load(w) != 0 {
		t.Fatalf("volatile MwCAS survived crash: %d", a.h.Load(w))
	}
}

// Concurrent counters: N threads increment M words via MwCAS; the final
// sum must equal the number of successful operations times M.
func testConcurrentEngine(t *testing.T, apply func(tid int, es []Entry) bool, read func(nvm.Addr) uint64, words []nvm.Addr) {
	t.Helper()
	const goroutines = 6
	const perG = 400
	var wg sync.WaitGroup
	var successes [goroutines]int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(tid)+1, 9))
			for i := 0; i < perG; i++ {
				// Pick two distinct words, increment both atomically.
				i1 := int(rng.Uint64N(uint64(len(words))))
				i2 := int(rng.Uint64N(uint64(len(words))))
				if i1 == i2 {
					continue
				}
				for {
					o1, o2 := read(words[i1]), read(words[i2])
					if apply(tid, []Entry{
						{words[i1], o1, o1 + 1},
						{words[i2], o2, o2 + 1},
					}) {
						successes[tid]++
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var total, want int64
	for _, w := range words {
		total += int64(read(w))
	}
	for _, s := range successes {
		want += 2 * s
	}
	if total != want {
		t.Fatalf("sum = %d, want %d (atomicity violated)", total, want)
	}
}

func TestDescConcurrent(t *testing.T) {
	a, d := descEngine(t, false, 6)
	words := make([]nvm.Addr, 8)
	for i := range words {
		words[i] = a.alloc(8)
	}
	testConcurrentEngine(t, d.Apply, d.Read, words)
}

func TestPMwCASConcurrent(t *testing.T) {
	a, d := descEngine(t, true, 6)
	words := make([]nvm.Addr, 8)
	for i := range words {
		words[i] = a.alloc(8)
	}
	testConcurrentEngine(t, d.Apply, d.Read, words)
}

func TestHTMMwCASConcurrent(t *testing.T) {
	a := newArena(1 << 16)
	tm := htm.Default()
	m := NewHTMMwCAS(a.h, tm)
	words := make([]nvm.Addr, 8)
	for i := range words {
		words[i] = a.alloc(8)
	}
	testConcurrentEngine(t, func(_ int, es []Entry) bool { return m.Apply(es) }, m.Read, words)
}

// With every transactional attempt killed, each Apply runs as a slow-path
// session: concurrent 2-word transfers must conserve the total, and a CAS
// that fails on its second word must not have written its first.
func TestHTMMwCASSessionPathConservesTotal(t *testing.T) {
	a := newArena(1 << 16)
	tm := htm.New(htm.Config{SpuriousRate: 1})
	m := NewHTMMwCAS(a.h, tm)
	const initial = 1000
	words := make([]nvm.Addr, 8)
	for i := range words {
		words[i] = a.alloc(8)
		a.h.Store(words[i], initial)
	}
	const goroutines = 6
	const perG = 200
	var applies atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(tid)+1, 17))
			for i := 0; i < perG; i++ {
				i1 := int(rng.Uint64N(uint64(len(words))))
				i2 := (i1 + 1 + int(rng.Uint64N(uint64(len(words)-1)))) % len(words)
				o1, o2 := m.Read(words[i1]), m.Read(words[i2])
				applies.Add(1)
				if i%4 == 3 {
					// Doomed: no word ever holds 1<<62, so the second
					// check fails whether or not the first matches.
					if m.Apply([]Entry{{words[i1], o1, o1 - 1}, {words[i2], 1 << 62, o2 + 1}}) {
						t.Errorf("CAS with an impossible old value succeeded")
					}
					continue
				}
				m.Apply([]Entry{{words[i1], o1, o1 - 1}, {words[i2], o2, o2 + 1}})
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, w := range words {
		total += m.Read(w)
	}
	if want := uint64(initial * len(words)); total != want {
		t.Fatalf("total = %d, want %d (partial write or lost update)", total, want)
	}
	if s := tm.Stats(); s.Commits != 0 || s.FallbackAcquires != applies.Load() {
		t.Fatalf("commits=%d sessions=%d, want 0 and %d: not every Apply took the session",
			s.Commits, s.FallbackAcquires, applies.Load())
	}
}

func TestDescHelpingCompletesConflicting(t *testing.T) {
	// Two threads repeatedly MwCAS overlapping word sets; helping must
	// keep the engine live and atomic even under heavy overlap.
	a, d := descEngine(t, false, 2)
	w1, w2, w3 := a.alloc(8), a.alloc(8), a.alloc(8)
	var wg sync.WaitGroup
	for tid := 0; tid < 2; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				for {
					o1, o2, o3 := d.Read(w1), d.Read(w2), d.Read(w3)
					if d.Apply(tid, []Entry{{w1, o1, o1 + 1}, {w2, o2, o2 + 1}, {w3, o3, o3 + 1}}) {
						break
					}
				}
			}
		}(tid)
	}
	wg.Wait()
	if d.Read(w1) != 4000 || d.Read(w2) != 4000 || d.Read(w3) != 4000 {
		t.Fatalf("counters = %d %d %d, want 4000 each", d.Read(w1), d.Read(w2), d.Read(w3))
	}
}

// TestDescToggleKeepsEveryWordsParity runs descriptor MwCASes whose old
// values come back: each operation flips two of three 0/1 words, so a word
// returns to a value it held before, and a helper that reinstalled a
// decided operation's pointer there would either flip it a second time or,
// once the owner had recycled the descriptor, leave a pointer no Read can
// resolve. Each word must end at the parity of the flips that succeeded on
// it, within a deadline of its own.
func TestDescToggleKeepsEveryWordsParity(t *testing.T) {
	const goroutines = 6
	const rounds = 8
	const perG = 4000
	for r := 0; r < rounds; r++ {
		a, d := descEngine(t, false, goroutines)
		words := []nvm.Addr{a.alloc(8), a.alloc(8), a.alloc(8)}
		var flips [goroutines][3]int
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(tid)+1, uint64(r)))
				for i := 0; i < perG; i++ {
					i1 := int(rng.Uint64N(3))
					i2 := (i1 + 1 + int(rng.Uint64N(2))) % 3
					o1, o2 := d.Read(words[i1]), d.Read(words[i2])
					if d.Apply(tid, []Entry{{words[i1], o1, 1 - o1}, {words[i2], o2, 1 - o2}}) {
						flips[tid][i1]++
						flips[tid][i2]++
					}
				}
			}(g)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			panic("descriptor MwCAS workers did not finish: a word holds a pointer no Read can resolve")
		}
		for w, addr := range words {
			n := 0
			for g := range flips {
				n += flips[g][w]
			}
			if got := d.Read(addr); got != uint64(n%2) {
				t.Fatalf("round %d: word %d = %d after %d successful flips", r, w, got, n)
			}
		}
	}
}

func TestDescDuplicateAddrPanics(t *testing.T) {
	a, d := descEngine(t, false, 1)
	w := a.alloc(8)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate target should panic")
		}
	}()
	d.Apply(0, []Entry{{w, 0, 1}, {w, 0, 2}})
}

func TestDescEmptyApply(t *testing.T) {
	_, d := descEngine(t, false, 1)
	if !d.Apply(0, nil) {
		t.Fatal("empty Apply should trivially succeed")
	}
}

// TestHelpDecidedDescriptorTerminates pins the helping-cycle fix: a
// decided descriptor whose pointer still sits in a word (phase 3 has not
// reached it yet) must not be re-installed by help(). Before the status check in help(), this state
// made two helpers recurse into each other until the stack overflowed:
// helping the decided descriptor re-ran phase 1, hit the live
// descriptor's pointer in its first word, helped it, which hit the
// decided descriptor's pointer in its second word, and so on.
func TestHelpDecidedDescriptorTerminates(t *testing.T) {
	a := newArena(1 << 12)
	h := a.h
	d := NewDesc(h, false, 2, a.alloc)
	w1, w2 := a.alloc(1), a.alloc(1)

	fill := func(desc nvm.Addr, seq, state uint64, es []Entry) uint64 {
		h.Store(desc+descSeqOff, seq)
		h.Store(desc+descStatusOff, seq<<8|state)
		h.Store(desc+descCountOff, uint64(len(es)))
		for i, e := range es {
			base := desc + descEntryOff + nvm.Addr(i*3)
			h.Store(base, uint64(e.Addr))
			h.Store(base+1, e.Old)
			h.Store(base+2, e.New)
		}
		return markedPtr(desc, seq)
	}

	// Descriptor B: decided SUCCEEDED over {w1: 1→11, w2: 2→12}; phase 3
	// already swapped w1 to 11, but its pointer still occupies w2.
	ptrB := fill(d.descs[1], 2, stSucceeded,
		[]Entry{{Addr: w1, Old: 1, New: 11}, {Addr: w2, Old: 2, New: 12}})
	// Descriptor A: live and undecided over {w1: 11→21, w2: 12→22},
	// installed at w1, blocked on w2 (held by B's stale pointer).
	ptrA := fill(d.descs[0], 2, stUndecided,
		[]Entry{{Addr: w1, Old: 11, New: 21}, {Addr: w2, Old: 12, New: 22}})
	h.Store(w1, ptrA)
	h.Store(w2, ptrB)

	// Reading w2 helps B; B is decided, so help must only remove the
	// pointer (w2 → 12), never re-run installation.
	if got := d.Read(w2); got != 12 {
		t.Fatalf("Read(w2) after helping decided descriptor = %d, want 12", got)
	}
	// Reading w1 helps A, which can now finish: install w2, decide, swap.
	if got := d.Read(w1); got != 21 {
		t.Fatalf("Read(w1) after helping live descriptor = %d, want 21", got)
	}
	if got := d.Read(w2); got != 22 {
		t.Fatalf("w2 after A completed = %d, want 22", got)
	}
}
