package nvm

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRacingFlushesKeepNewestImage: two goroutines each own one word of a
// shared line, and every round both store their word and flush it. Once
// both flushes have returned the line is clean, so its image must equal
// its view. It fails when two write-backs of one line can land in the
// opposite order to their reads of the view: the older copy lands last
// and the line reads clean over a stale image — a completed flush lost.
// An unserialised copy lost about 12 in 10^6 rounds on 2 vCPUs.
func TestRacingFlushesKeepNewestImage(t *testing.T) {
	rounds := uint64(1_000_000)
	if testing.Short() {
		rounds = 100_000
	}
	var round, done atomic.Uint64
	var stop atomic.Bool
	defer stop.Store(true) // a failed round leaves the other goroutine waiting
	// await spins until v reaches r, yielding now and then so that the
	// test also progresses on one P; spinning keeps the two flushes of a
	// round close together.
	await := func(v *atomic.Uint64, r uint64) bool {
		for i := 1; v.Load() < r; i++ {
			if stop.Load() {
				return false
			}
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
		return true
	}
	h := New(Config{Words: RootWords})
	go func() {
		for r := uint64(1); r <= rounds; r++ {
			if !await(&round, r) {
				return
			}
			h.Store(1, r)
			h.Flush(1)
			done.Store(r)
		}
	}()
	for r := uint64(1); r <= rounds; r++ {
		round.Store(r)
		h.Store(0, r)
		h.Flush(0)
		await(&done, r)
		if h.DirtyLine(0) {
			t.Fatalf("round %d: line dirty after both of its flushes returned", r)
		}
		for a := Addr(0); a < 2; a++ {
			if img, view := h.PersistedLoad(a), h.Load(a); img != view {
				t.Fatalf("round %d: word %d reads %d in the image, %d in the view, on a clean line", r, a, img, view)
			}
		}
	}
}

// TestStoreRacingWriteBackIsNeitherLostNorInvented: goroutine A stores
// 1, 2, 3, … to word 0 of a line while goroutine B, in a loop, stores to
// word 1 of the same line and flushes it. A publishes each value before
// its store begins (started) and after it returns (done). After each of
// B's flushes, word 0's persisted value must lie between done read before
// the flush began and started read after it returned: a store that
// returned before the write-back began is not lost, and none the
// write-back could not have seen is invented. The same holds for B's last
// flush across a quiescent crash. It fails when a write-back clears the
// dirty bit or drops the pre-image outside the page lock: a store to the
// clean line saves its pre-image in between, and the write-back drops it.
func TestStoreRacingWriteBackIsNeitherLostNorInvented(t *testing.T) {
	rounds := uint64(1_000_000)
	if testing.Short() {
		rounds = 100_000
	}
	h := New(Config{Words: RootWords})
	var started, done atomic.Uint64
	var stop atomic.Bool
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for v := uint64(1); !stop.Load(); v++ {
			started.Store(v)
			h.Store(0, v)
			done.Store(v)
		}
	}()
	var lo, hi uint64
	for r := uint64(1); r <= rounds; r++ {
		h.Store(1, r)
		lo = done.Load()
		h.Flush(1)
		hi = started.Load()
		if got, now := h.PersistedLoad(0), started.Load(); got < lo || got > now {
			stop.Store(true)
			<-finished
			t.Fatalf("round %d: word 0 persisted as %d, want within [%d, %d]", r, got, lo, now)
		}
	}
	stop.Store(true)
	<-finished
	h.Crash(CrashOptions{})
	if got := h.Load(0); got < lo || got > hi {
		t.Fatalf("after the crash word 0 reads %d, want within [%d, %d]", got, lo, hi)
	}
	if got := h.Load(1); got != rounds {
		t.Fatalf("after the crash word 1 reads %d, want %d", got, rounds)
	}
}
