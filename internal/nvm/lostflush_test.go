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
