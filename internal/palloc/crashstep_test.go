package palloc

import (
	"testing"

	"bdhtm/internal/nvm"
)

// This file walks the allocator's metadata protocol with a power failure
// injected between every pair of persist events. The protocol under test
// is the committed alloc/free pair:
//
//	alloc:  Alloc -> store payload -> stamp header with committed epoch
//	        -> FlushRange(block) -> Fence
//	free:   Free -> Flush(header) -> Fence
//
// The block under test is its slab's first: three words at the start of a
// cache line. That is what makes the single block flush failure-atomic here
// — two class-0 blocks in eight straddle a line, and a caller that wants
// this protocol for those must make the payload durable before the header
// (the crashfuzz palloc subject does). So the
// pair issues exactly four persist events: the block flush, the commit
// fence, the free-header flush, and the free fence. Crashing before each
// one in turn covers every distinct media state the protocol can leave.
// After each crash the allocator is recovered with the epoch judge
// (ALLOCATED with the committed epoch survives) and checked for the two
// allocator-level disasters: a double allocation (a live block handed
// out again) and a leak (a dead block that can never be allocated again).

const (
	stepEpoch   = 7 // the "persisted epoch" the judge accepts
	stepKey     = 99
	stepVal     = 1234
	stepTag     = 0x3f
	stepNoCrash = -1 // countdown value that lets the protocol complete
)

type stepCrash struct{ step int }

// armStepCrash makes the heap panic with stepCrash immediately before the
// (step+1)-th persist event. step < 0 disarms nothing and never fires.
func armStepCrash(h *nvm.Heap, step int) {
	n := step
	h.SetPersistHook(func(nvm.PersistPoint, nvm.Addr) {
		if n == 0 {
			panic(stepCrash{step})
		}
		if n > 0 {
			n--
		}
	})
}

// runToCrash runs fn with the hook armed at step, reporting whether the
// injected crash fired. Any other panic propagates.
func runToCrash(h *nvm.Heap, step int, fn func()) (crashed bool) {
	armStepCrash(h, step)
	defer func() {
		h.SetPersistHook(nil)
		if r := recover(); r != nil {
			if _, ok := r.(stepCrash); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

// commitBlock runs the durable-allocation half of the protocol.
func commitBlock(h *nvm.Heap, al *Allocator) nvm.Addr {
	b := al.Alloc(0, stepTag)
	h.Store(Payload(b), stepKey)
	h.Store(Payload(b)+1, stepVal)
	al.WriteHeader(b, Header{Status: Allocated, Class: 0, Tag: stepTag, Epoch: stepEpoch})
	h.FlushRange(b, ClassWords(0))
	h.Fence()
	return b
}

// retireBlock runs the durable-free half.
func retireBlock(h *nvm.Heap, al *Allocator, b nvm.Addr) {
	al.Free(b)
	h.Flush(b)
	h.Fence()
}

func TestCrashAtEveryStep(t *testing.T) {
	judge := func(bi BlockInfo) bool {
		return bi.Header.Status == Allocated && bi.Header.Epoch == stepEpoch
	}

	// One row per injection point. wantLive is the exact media state the
	// simulator must leave: flushes reach the persistent image when they
	// execute, fences only order them, so the state flips at each flush.
	steps := []struct {
		step     int
		name     string
		wantLive bool // is the block recovered after this crash?
	}{
		{0, "before-block-flush", false}, // header+payload never persisted
		{1, "before-commit-fence", true}, // block flush already on media
		{2, "before-free-flush", true},   // free header still volatile
		{3, "before-free-fence", false},  // FREE header on media
		{stepNoCrash, "no-crash", false}, // full pair completes
	}

	for _, tc := range steps {
		t.Run(tc.name, func(t *testing.T) {
			h := nvm.New(nvm.Config{Words: 1 << 16})
			al := New(h)
			// Warm-up with the hook disarmed: formats the class-0 slab (its
			// own 513 persist events are the slab's problem, not the
			// pair's) and leaves one block on the free list for reuse.
			warm := al.Alloc(0, 0)
			al.Free(warm)

			var b nvm.Addr
			crashed := runToCrash(h, tc.step, func() {
				b = commitBlock(h, al)
				retireBlock(h, al, b)
			})
			if crashed != (tc.step != stepNoCrash) {
				t.Fatalf("crashed = %v at step %d; the protocol issues exactly 4 persist events", crashed, tc.step)
			}
			if b.IsNil() {
				b = warm // crash hit before Alloc returned; LIFO reuse says it was getting warm back
			}

			h.Crash(nvm.CrashOptions{})
			al2 := New(h)
			live := make(map[nvm.Addr]Header)
			al2.Recover(func(bi BlockInfo) bool {
				if !judge(bi) {
					return false
				}
				live[bi.Addr] = bi.Header
				return true
			})

			wantLen := 0
			if tc.wantLive {
				wantLen = 1
			}
			if len(live) != wantLen {
				t.Fatalf("recovered %d live blocks, wantLive=%v (live set %v)", len(live), tc.wantLive, live)
			}
			if tc.wantLive {
				if _, ok := live[b]; !ok {
					t.Fatalf("live block is not the protocol's block %d: %v", b, live)
				}
				if k, v := h.Load(Payload(b)), h.Load(Payload(b)+1); k != stepKey || v != stepVal {
					t.Fatalf("recovered payload torn: k=%d v=%d", k, v)
				}
			}

			// No leak: the accounting must match the judged set, and every
			// non-live block in the slab must be allocatable again. The
			// class-0 slab holds slabCap(0) blocks; allocating all but the
			// live ones must succeed without formatting a second slab.
			if al2.LiveBlocks() != int64(len(live)) {
				t.Fatalf("LiveBlocks = %d, want %d", al2.LiveBlocks(), len(live))
			}
			footprint := al2.FootprintBytes()
			fresh := make([]nvm.Addr, 0, slabCap(0))
			for i := 0; i < slabCap(0)-len(live); i++ {
				fresh = append(fresh, al2.Alloc(0, 0))
			}
			if al2.FootprintBytes() != footprint {
				t.Fatalf("leak: recovery lost blocks, refilling the slab formatted new space")
			}
			// No double allocation: none of the fresh blocks may alias a
			// block the judge declared live.
			for _, f := range fresh {
				if _, ok := live[f]; ok {
					t.Fatalf("double allocation: live block %d handed out again", f)
				}
			}
		})
	}
}

// TestCrashAtEveryStepWithStrayWritebacks repeats the sweep with the
// crash model's randomized eviction turned all the way up: every dirty
// line reaches the media at the crash, as if the cache wrote everything
// back just in time. The judge must still produce a consistent state —
// the protocol's epoch stamp, not flush timing, is what commits a block.
func TestCrashAtEveryStepWithStrayWritebacks(t *testing.T) {
	judge := func(bi BlockInfo) bool {
		return bi.Header.Status == Allocated && bi.Header.Epoch == stepEpoch
	}
	// With every line written back, the volatile protocol state is what
	// persists. Step 0 is the interesting row: the stamped header is
	// already in the cache when the crash hits (the hook fires before the
	// block flush, and the protocol stamps before flushing), so a full
	// write-back persists it and the block is live even though nothing
	// was ever explicitly flushed. Crashes inside the free half leave the
	// volatile FREE header, which the write-back also persists: dead.
	steps := []struct {
		step     int
		wantLive bool
	}{
		{0, true},
		{1, true},
		{2, false},
		{3, false},
	}

	for _, tc := range steps {
		h := nvm.New(nvm.Config{Words: 1 << 16})
		al := New(h)
		warm := al.Alloc(0, 0)
		al.Free(warm)

		var b nvm.Addr
		crashed := runToCrash(h, tc.step, func() {
			b = commitBlock(h, al)
			retireBlock(h, al, b)
		})
		if !crashed {
			t.Fatalf("step %d: protocol completed without crashing", tc.step)
		}
		if b.IsNil() {
			b = warm
		}

		h.Crash(nvm.CrashOptions{EvictFraction: 1, Seed: uint64(tc.step)*2 + 1})
		al2 := New(h)
		live := 0
		al2.Recover(func(bi BlockInfo) bool {
			if !judge(bi) {
				return false
			}
			live++
			if bi.Addr != b {
				t.Fatalf("step %d: live block %d is not the protocol's block %d", tc.step, bi.Addr, b)
			}
			return true
		})
		want := 0
		if tc.wantLive {
			want = 1
		}
		if live != want {
			t.Fatalf("step %d: %d live blocks, want %d", tc.step, live, want)
		}
		if al2.LiveBlocks() != int64(live) {
			t.Fatalf("step %d: LiveBlocks = %d, want %d", tc.step, al2.LiveBlocks(), live)
		}
	}
}
