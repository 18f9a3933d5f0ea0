package crashfuzz

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bdhtm/internal/nvm"
)

// buildResurrectionScenario constructs the deterministic pre-crash heap
// for TestCrashDuringRecovery: a bdhash subject with durable inserts, an
// unsynced remove wave, and a full-eviction crash, so recovery has a
// substantial resurrection write-back batch to be interrupted in.
func buildResurrectionScenario(t *testing.T) Subject {
	t.Helper()
	sub, err := NewSubject("bdhash")
	if err != nil {
		t.Fatal(err)
	}
	sub.Init(Env{
		Seed:      0xc4a5,
		HeapWords: DefaultHeapWords,
		Workers:   1,
	})
	h := sub.Handle(0)
	for k := uint64(0); k < 96; k++ {
		h.Insert(k, k*13+7)
	}
	sub.Advance()
	sub.Advance() // the 96 inserts are durable at boundary P
	for k := uint64(0); k < 48; k++ {
		h.Remove(k) // delete epoch > P: must be rolled back by recovery
	}
	// Full eviction: every DELETED header reaches media before power-off.
	sub.Crash(nvm.CrashOptions{EvictFraction: 1})
	return sub
}

// TestCrashDuringRecovery pins that recovery is idempotent under its own
// power failures: a crash landing inside the batched resurrection
// write-back (after some resurrection lines persisted, with at least the
// last one lost) must leave a heap that a second recovery brings to the
// exact same state — same logical contents, same persistent image — as a
// recovery that was never interrupted.
func TestCrashDuringRecovery(t *testing.T) {
	prev := runtime.GOMAXPROCS(2) // the header scan runs on two workers
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	// Pass 1: clean recovery. Record the persist-event sequence so the
	// crash point can be aimed, plus the expected dump and image.
	sub := buildResurrectionScenario(t)
	var (
		pointsMu sync.Mutex // scan workers fire the hook concurrently
		points   []nvm.PersistPoint
	)
	sub.Heap().SetPersistHook(func(pt nvm.PersistPoint, _ nvm.Addr) {
		pointsMu.Lock()
		points = append(points, pt)
		pointsMu.Unlock()
	})
	if err := sub.Recover(); err != nil {
		t.Fatalf("clean recovery: %v", err)
	}
	sub.Heap().SetPersistHook(nil)

	if resurrected := sub.(*bufferedSubject).st.Sys.Stats().Resurrected; resurrected < 8 {
		t.Fatalf("scenario resurrected only %d blocks; the crash point would miss the write-back batch", resurrected)
	}
	wantLen := sub.Len()
	wantDump := map[uint64]uint64{}
	h := sub.Handle(0)
	for k := uint64(0); k < 96; k++ {
		if v, ok := h.Get(k); ok {
			wantDump[k] = v
		}
	}
	wantImage := make([]uint64, sub.Heap().Words())
	for a := range wantImage {
		wantImage[a] = sub.Heap().PersistedLoad(nvm.Addr(a))
	}

	// The resurrection batch is the tail of the scan phase: the last
	// PointFlush events before the trailing fence(s). Aim the crash at
	// the final one — the hook fires before the line persists, so that
	// resurrection is lost while the earlier ones in the batch survive.
	crashAt := len(points)
	for crashAt > 0 && points[crashAt-1] == nvm.PointFence {
		crashAt--
	}
	if crashAt == 0 || points[crashAt-1] != nvm.PointFlush {
		t.Fatalf("no flush events in recovery (saw %d persist events)", len(points))
	}

	// Pass 2: identical scenario, power failure at the aimed event. The
	// hook is sticky (keeps panicking) so nothing inside recovery can
	// ride over the failure.
	sub2 := buildResurrectionScenario(t)
	var countdown atomic.Int64
	countdown.Store(int64(crashAt))
	sub2.Heap().SetPersistHook(func(pt nvm.PersistPoint, _ nvm.Addr) {
		if countdown.Add(-1) <= 0 {
			panic(crashSentinel{point: pt})
		}
	})
	err := sub2.Recover()
	if err == nil {
		t.Fatal("recovery survived the armed power failure")
	}
	if !strings.Contains(err.Error(), "recovery panic") {
		t.Fatalf("unexpected recovery failure: %v", err)
	}

	// Second power-off (clears the hook and drops volatile state), then
	// recover again: the interrupted write-back must not have torn
	// anything the second pass cannot redo.
	sub2.Heap().Crash(nvm.CrashOptions{})
	if err := sub2.Recover(); err != nil {
		t.Fatalf("recovery after mid-recovery crash: %v", err)
	}
	if got := sub2.Len(); got != wantLen {
		t.Fatalf("Len after re-recovery = %d, want %d", got, wantLen)
	}
	h2 := sub2.Handle(0)
	for k := uint64(0); k < 96; k++ {
		v, ok := h2.Get(k)
		wv, wok := wantDump[k]
		if ok != wok || v != wv {
			t.Fatalf("key %d after re-recovery = %d,%v; clean recovery had %d,%v", k, v, ok, wv, wok)
		}
	}
	for a := range wantImage {
		if got := sub2.Heap().PersistedLoad(nvm.Addr(a)); got != wantImage[a] {
			t.Fatalf("persistent image differs at %#x: %#x, clean recovery had %#x", a, got, wantImage[a])
		}
	}
}
