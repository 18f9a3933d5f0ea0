package nvm

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func newTestHeap(t *testing.T, mode Mode) *Heap {
	t.Helper()
	return New(Config{Words: 1 << 14, Mode: mode})
}

func TestLoadStoreRoundTrip(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	h.Store(100, 42)
	if got := h.Load(100); got != 42 {
		t.Fatalf("Load(100) = %d, want 42", got)
	}
}

func TestStoreIsNotDurableWithoutFlush(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	h.Store(100, 42)
	if got := h.PersistedLoad(100); got != 0 {
		t.Fatalf("persistent image = %d before flush, want 0", got)
	}
	h.Crash(CrashOptions{})
	if got := h.Load(100); got != 0 {
		t.Fatalf("Load after crash = %d, want 0 (store was never flushed)", got)
	}
}

func TestFlushMakesStoreDurable(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	h.Store(100, 42)
	h.Persist(100)
	if got := h.PersistedLoad(100); got != 42 {
		t.Fatalf("persistent image = %d after flush, want 42", got)
	}
	h.Crash(CrashOptions{})
	if got := h.Load(100); got != 42 {
		t.Fatalf("Load after crash = %d, want 42", got)
	}
}

func TestFlushCoversWholeLine(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	// Two words in the same 8-word line.
	h.Store(128, 1)
	h.Store(129, 2)
	h.Flush(128) // flush via the first word's address
	h.Crash(CrashOptions{})
	if h.Load(128) != 1 || h.Load(129) != 2 {
		t.Fatalf("whole line should persist together: got %d,%d", h.Load(128), h.Load(129))
	}
}

func TestStoresAfterFlushAreNotDurable(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	h.Store(200, 7)
	h.Persist(200)
	h.Store(200, 8) // newer value, never flushed
	h.Crash(CrashOptions{})
	if got := h.Load(200); got != 7 {
		t.Fatalf("Load after crash = %d, want 7 (the flushed value)", got)
	}
}

func TestEADRStoreDurableWithoutFlush(t *testing.T) {
	h := newTestHeap(t, ModeEADR)
	h.Store(100, 42)
	h.Crash(CrashOptions{})
	if got := h.Load(100); got != 42 {
		t.Fatalf("eADR Load after crash = %d, want 42", got)
	}
}

func TestDRAMLosesEverything(t *testing.T) {
	h := newTestHeap(t, ModeDRAM)
	h.Store(100, 42)
	h.Persist(100) // no-op in DRAM mode
	h.Crash(CrashOptions{})
	if got := h.Load(100); got != 0 {
		t.Fatalf("DRAM Load after crash = %d, want 0", got)
	}
}

func TestCrashEvictFractionOne(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	for i := Addr(100); i < 200; i++ {
		h.Store(i, uint64(i))
	}
	h.Crash(CrashOptions{EvictFraction: 1})
	for i := Addr(100); i < 200; i++ {
		if got := h.Load(i); got != uint64(i) {
			t.Fatalf("Load(%d) = %d after full-eviction crash, want %d", i, got, i)
		}
	}
}

func TestCrashEvictFractionPartial(t *testing.T) {
	h := New(Config{Words: 1 << 16, Mode: ModeADR})
	const n = 4096
	for i := Addr(RootWords); i < RootWords+n; i++ {
		h.Store(i, 1)
	}
	h.Crash(CrashOptions{EvictFraction: 0.5, Seed: 1})
	survived := 0
	for i := Addr(RootWords); i < RootWords+n; i++ {
		if h.Load(i) == 1 {
			survived++
		}
	}
	// Lines persist or vanish as whole 64-byte units; roughly half should
	// survive. Use generous bounds to avoid seed sensitivity.
	if survived == 0 || survived == n {
		t.Fatalf("partial eviction: %d/%d words survived, expected a strict subset", survived, n)
	}
	// Check line granularity: within each line all words share a fate.
	for l := uint64(RootWords / LineWords); l < (RootWords+n)/LineWords; l++ {
		base := Addr(l * LineWords)
		first := h.Load(base)
		for i := Addr(1); i < LineWords; i++ {
			if h.Load(base+i) != first {
				t.Fatalf("line %d persisted partially: words differ", l)
			}
		}
	}
}

func TestCompareAndSwap(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	h.Store(100, 5)
	if h.CompareAndSwap(100, 4, 9) {
		t.Fatal("CAS with wrong expected value succeeded")
	}
	if !h.CompareAndSwap(100, 5, 9) {
		t.Fatal("CAS with correct expected value failed")
	}
	if got := h.Load(100); got != 9 {
		t.Fatalf("Load after CAS = %d, want 9", got)
	}
}

func TestAdd(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	h.Store(100, 5)
	if got := h.Add(100, 3); got != 8 {
		t.Fatalf("Add returned %d, want 8", got)
	}
}

func TestFlushRangeCoalescesMediaWrites(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	// Dirty one full XPLine (4 cache lines, 32 words), aligned.
	base := Addr(XPLineWords * 4)
	for i := Addr(0); i < XPLineWords; i++ {
		h.Store(base+i, 1)
	}
	before := h.Stats()
	h.FlushRange(base, XPLineWords)
	d := h.Stats().Sub(before)
	if d.MediaWrites != 1 {
		t.Fatalf("FlushRange over one XPLine: %d media writes, want 1", d.MediaWrites)
	}
	if d.LineWritebacks != 4 {
		t.Fatalf("FlushRange: %d line writebacks, want 4", d.LineWritebacks)
	}
}

func TestSingleFlushesAmplify(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	base := Addr(XPLineWords * 4)
	for l := 0; l < 4; l++ {
		h.Store(base+Addr(l*LineWords), 1)
		h.Flush(base + Addr(l*LineWords))
	}
	s := h.Stats()
	if s.MediaWrites != 4 {
		t.Fatalf("4 separate line flushes: %d media writes, want 4", s.MediaWrites)
	}
	if wa := s.WriteAmplification(); wa < 3.9 {
		t.Fatalf("write amplification %.2f, want ~4 for line-at-a-time flushing", wa)
	}
}

func TestFlushInvalidatesLine(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	h.Store(100, 1)
	h.Load(100) // line now resident
	pre := h.Stats()
	h.Load(100)
	if d := h.Stats().Sub(pre); d.Misses != 0 {
		t.Fatalf("expected hit on resident line, got %d misses", d.Misses)
	}
	h.Flush(100)
	pre = h.Stats()
	h.Load(100)
	if d := h.Stats().Sub(pre); d.Misses != 1 {
		t.Fatalf("expected miss after flush invalidation, got %d misses", d.Misses)
	}
}

func TestCapacityEviction(t *testing.T) {
	h := New(Config{Words: 1 << 16, Mode: ModeADR, CacheLines: 32})
	for i := 0; i < 1<<13; i += LineWords {
		h.Store(Addr(i+RootWords), 7)
	}
	if h.Stats().Evictions == 0 {
		t.Fatal("expected capacity evictions with a 32-line cache")
	}
}

func TestEvictionWritesBackDirtyData(t *testing.T) {
	h := New(Config{Words: 1 << 16, Mode: ModeADR, CacheLines: 16, Seed: 7})
	const n = 2048
	for i := Addr(RootWords); i < RootWords+n; i++ {
		h.Store(i, 3)
	}
	// With a 16-line cache and 256 lines dirtied, most lines must have been
	// evicted (and written back) without any explicit flush.
	persisted := 0
	for i := Addr(RootWords); i < RootWords+n; i++ {
		if h.PersistedLoad(i) == 3 {
			persisted++
		}
	}
	if persisted == 0 {
		t.Fatal("capacity eviction should write dirty lines to the persistent image")
	}
}

func TestConcurrentAccessIsRaceFree(t *testing.T) {
	h := New(Config{Words: 1 << 14, Mode: ModeADR, CacheLines: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id), 99))
			for i := 0; i < 2000; i++ {
				a := Addr(RootWords + rng.Uint64N(1<<13))
				switch rng.Uint64N(4) {
				case 0:
					h.Store(a, rng.Uint64())
				case 1:
					h.Load(a)
				case 2:
					h.CompareAndSwap(a, 0, 1)
				case 3:
					h.Flush(a)
				}
			}
		}(g)
	}
	wg.Wait()
	h.Fence()
}

func TestWordPtrSharesStorage(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	p := h.WordPtr(100)
	*p = 77
	h.MarkDirty(100)
	if got := h.Load(100); got != 77 {
		t.Fatalf("Load = %d after WordPtr store, want 77", got)
	}
	h.Persist(100)
	h.Crash(CrashOptions{})
	if got := h.Load(100); got != 77 {
		t.Fatalf("WordPtr store did not persist: got %d", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	h := New(Config{Words: 1 << 10})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range address")
		}
	}()
	h.Load(Addr(1 << 20))
}

func TestHeapRoundsToXPLine(t *testing.T) {
	h := New(Config{Words: 100})
	if h.Words()%XPLineWords != 0 {
		t.Fatalf("heap size %d not XPLine aligned", h.Words())
	}
}

// Property: flushed data always survives a crash; data written after the
// last flush of its line never does (EvictFraction 0).
func TestQuickFlushDurability(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 256 {
			vals = vals[:256]
		}
		h := New(Config{Words: 1 << 13, Mode: ModeADR})
		// Write each value to its own line, flush even indices only.
		for i, v := range vals {
			a := Addr(RootWords + i*LineWords)
			h.Store(a, v)
			if i%2 == 0 {
				h.Flush(a)
			}
		}
		h.Fence()
		h.Crash(CrashOptions{})
		for i, v := range vals {
			a := Addr(RootWords + i*LineWords)
			got := h.Load(a)
			if i%2 == 0 && got != v {
				return false
			}
			if i%2 == 1 && got != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a crash exposes each line either entirely pre-store or entirely
// post-store, never a torn mixture of epochs of writes to that line,
// provided each batch of writes to a line is followed by a flush.
func TestQuickLineAtomicityUnderEviction(t *testing.T) {
	f := func(seed uint64, evictPct uint8) bool {
		h := New(Config{Words: 1 << 13, Mode: ModeADR})
		rng := rand.New(rand.NewPCG(seed, seed+1))
		// Two generations of full-line writes; only generation 1 flushed.
		lines := 32
		for l := 0; l < lines; l++ {
			base := Addr(RootWords + l*LineWords)
			for w := Addr(0); w < LineWords; w++ {
				h.Store(base+w, 1)
			}
			h.Flush(base)
			for w := Addr(0); w < LineWords; w++ {
				h.Store(base+w, 2)
			}
		}
		h.Crash(CrashOptions{EvictFraction: float64(evictPct%101) / 100, Seed: rng.Uint64() | 1})
		for l := 0; l < lines; l++ {
			base := Addr(RootWords + l*LineWords)
			first := h.Load(base)
			if first != 1 && first != 2 {
				return false
			}
			for w := Addr(1); w < LineWords; w++ {
				if h.Load(base+w) != first {
					return false // torn line
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsSnapshotSub(t *testing.T) {
	h := newTestHeap(t, ModeADR)
	before := h.Stats()
	h.Store(100, 1)
	h.Load(100)
	d := h.Stats().Sub(before)
	if d.Stores != 1 || d.Loads != 1 {
		t.Fatalf("interval stats: stores=%d loads=%d, want 1,1", d.Stores, d.Loads)
	}
}

func TestLatencyModelRuns(t *testing.T) {
	h := New(Config{Words: 1 << 12, Mode: ModeADR, Latency: OptaneProfile})
	h.Store(100, 1)
	h.Persist(100)
	if got := h.Load(100); got != 1 {
		t.Fatalf("latency-model heap Load = %d, want 1", got)
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{ModeADR: "ADR", ModeEADR: "eADR", ModeDRAM: "DRAM", Mode(9): "Mode(9)"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestAddrHelpers(t *testing.T) {
	if !Addr(0).IsNil() || Addr(1).IsNil() {
		t.Fatal("IsNil misbehaves")
	}
	if Addr(9).Line() != 1 {
		t.Fatalf("Addr(9).Line() = %d, want 1", Addr(9).Line())
	}
	if Addr(33).XPLine() != 1 {
		t.Fatalf("Addr(33).XPLine() = %d, want 1", Addr(33).XPLine())
	}
}

// TestStoreHookTearsALine: the store hook fires after each store has
// landed in the view and dirtied its line — Store, Add, a CompareAndSwap
// that succeeded, not one that failed — so a hook that flushes carries
// exactly the stores made so far to the media: the line state no persist
// event of the stored-to code would ever expose. Crash removes the hook.
func TestStoreHookTearsALine(t *testing.T) {
	h := New(Config{Words: 1024})
	const a = Addr(128)
	var seen []Addr
	h.SetStoreHook(func(at Addr) {
		if !h.DirtyLine(at) {
			t.Errorf("store hook at %d before the line was marked dirty", at)
		}
		seen = append(seen, at)
		if len(seen) == 2 {
			h.Flush(at) // between the second store and the third
		}
	})
	h.Store(a, 1)
	h.Add(a+1, 2)
	if h.CompareAndSwap(a+2, 7, 9) {
		t.Fatal("CompareAndSwap against the wrong old value succeeded")
	}
	if !h.CompareAndSwap(a+2, 0, 3) {
		t.Fatal("CompareAndSwap against the right old value failed")
	}
	if want := []Addr{a, a + 1, a + 2}; !slices.Equal(seen, want) {
		t.Fatalf("hook saw stores at %v, want %v", seen, want)
	}
	h.Crash(CrashOptions{})
	if got := [3]uint64{h.Load(a), h.Load(a + 1), h.Load(a + 2)}; got != [3]uint64{1, 2, 0} {
		t.Fatalf("line after the crash = %v, want the first two stores and not the third", got)
	}
	h.Store(a, 5)
	if len(seen) != 3 {
		t.Fatal("store hook survived the crash")
	}
}
