package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdhtm/internal/nvm"
)

// TestFlushEarlyLeavesTheCloseTheRest: an early pass writes back what the
// open epoch has tracked so far, with no fence and without moving the
// watermark; the close flushes only what was tracked after it, and both
// halves count as flushed blocks.
func TestFlushEarlyLeavesTheCloseTheRest(t *testing.T) {
	h, s := newManual(t, 1<<16)
	w := s.Register()
	var early []Block
	for k := uint64(0); k < 10; k++ {
		early = append(early, putKV(w, k, k+100))
	}
	fences, p := h.Stats().Fences, s.PersistedEpoch()
	s.FlushEarly()
	if d := h.Stats().Fences - fences; d != 0 || s.PersistedEpoch() != p {
		t.Fatalf("early pass issued %d fences and moved the watermark %d -> %d", d, p, s.PersistedEpoch())
	}
	for _, b := range early {
		for a := b.Addr(); a < b.Addr()+3; a++ {
			if h.DirtyLine(a) || h.PersistedLoad(a) != h.Load(a) {
				t.Fatalf("block %d word %d not written back by the early pass", b.Addr(), a)
			}
		}
	}
	if st := s.Stats(); st.EarlyFlushedBlocks != 10 || st.FlushedBlocks != 10 {
		t.Fatalf("after the early pass: early %d, flushed %d; want 10 and 10", st.EarlyFlushedBlocks, st.FlushedBlocks)
	}
	s.FlushEarly() // nothing new: a no-op
	for k := uint64(10); k < 15; k++ {
		putKV(w, k, k+100)
	}
	s.Sync()
	if st := s.Stats(); st.EarlyFlushedBlocks != 10 || st.FlushedBlocks != 15 {
		t.Fatalf("after the close: early %d, flushed %d; want 10 and 15", st.EarlyFlushedBlocks, st.FlushedBlocks)
	}
	s.SimulateCrash(nvm.CrashOptions{})
	if _, got := recoverAll(h); len(got) != 15 {
		t.Fatalf("recovered %d keys, want 15: %v", len(got), got)
	}
}

// TestEarlyWrittenBlockNeedsRetrack is invariant 1 of early.go: an in-place
// update after an early pass reaches the closing flush only through the
// tracking that follows it. Without that re-track the close skips the block
// (its entry is behind the early index), and a crash with no stray
// write-back recovers the value the early pass wrote, not the update.
func TestEarlyWrittenBlockNeedsRetrack(t *testing.T) {
	for _, retrack := range []bool{true, false} {
		h, s := newManual(t, 1<<16)
		w := s.Register()
		b := putKV(w, 7, 70)
		s.FlushEarly()
		w.BeginOp()
		if b.Epoch() != w.OpEpoch() {
			t.Fatal("the update must be in the block's own epoch")
		}
		b.Store(1, 71) // pSet
		if retrack {
			w.PTrack(b)
		}
		w.EndOp()
		s.Sync()
		s.SimulateCrash(nvm.CrashOptions{})
		_, got := recoverAll(h)
		want := uint64(71)
		if !retrack {
			want = 70
		}
		if got[7] != want {
			t.Fatalf("retrack=%v: recovered %v, want key 7 -> %d", retrack, got, want)
		}
	}
}

// TestAbortOpKeepsEarlyPassesOut: entries an operation tracked are published
// only when it ends, so an early pass never writes back what AbortOp then
// discards, and the early index stays behind every later entry.
func TestAbortOpKeepsEarlyPassesOut(t *testing.T) {
	h, s := newManual(t, 1<<16)
	w := s.Register()
	putKV(w, 1, 10)
	w.BeginOp()
	b := w.NewKV(0)
	b.InitKV(3, 30)
	w.PTrack(b)
	s.FlushEarly() // mid-operation: the tracking is not published yet
	w.AbortOp()
	if st := s.Stats(); st.EarlyFlushedBlocks != 1 {
		t.Fatalf("early pass wrote back %d blocks, want only the completed op's 1", st.EarlyFlushedBlocks)
	}
	putKV(w, 2, 20)
	s.Sync()
	if st := s.Stats(); st.FlushedBlocks != 2 {
		t.Fatalf("flushed %d blocks, want the two completed ops' 2", st.FlushedBlocks)
	}
	s.SimulateCrash(nvm.CrashOptions{})
	if _, got := recoverAll(h); len(got) != 2 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("recovered %v, want exactly 1 -> 10 and 2 -> 20", got)
	}
}

// TestEarlyThresholdFromMeasuredCost: a flusher goroutine publishes the
// early threshold once it has timed a write-back of at least costSample
// blocks — the budget over the measured per-block cost, shared among the
// workers that tracked — and Manual mode, with no doorbell, never does.
func TestEarlyThresholdFromMeasuredCost(t *testing.T) {
	for _, manual := range []bool{true, false} {
		h := nvm.New(nvm.Config{Words: 1 << 18})
		s := New(h, Config{Manual: manual, EpochLength: time.Hour}) // the advancer never fires
		ws := []*Worker{s.Register(), s.Register()}
		if s.earlyAt.Load() != neverEarly {
			t.Fatal("threshold set before any write-back was timed")
		}
		for k := uint64(0); k < 2*costSample; k++ {
			putKV(ws[k%2], k, k)
		}
		s.Sync()
		at := s.earlyAt.Load()
		if manual != (at == neverEarly) {
			t.Fatalf("manual=%v: threshold %d after a timed close", manual, at)
		}
		if !manual && (at < 1 || at > int64(time.Hour/earlyBudgetDiv)/2) {
			t.Fatalf("threshold %d out of range for a %v budget shared by 2 workers", at, time.Hour/earlyBudgetDiv)
		}
		s.Stop()
	}
}

// TestEarlyPassesRaceTrackingAndTasks is the concurrent form of the two
// invariants, for the race lane: workers create, update in place (with the
// re-track), replace and delete blocks while one goroutine takes early
// passes and another closes and flushes epochs — an early pass may land
// between an advance and its flush. Every tracking is written back exactly
// once, early or at its epoch's close, the workers running until some
// concurrent early pass has written a block back; every retirement is
// journaled exactly once and freed, a page of them early by construction;
// and a crash after a final Sync with no stray write-back recovers every
// worker's last value.
func TestEarlyPassesRaceTrackingAndTasks(t *testing.T) {
	const workers, keys, ops = 4, 32, 3000
	h := nvm.New(nvm.Config{Words: 1 << 20})
	s := New(h, Config{Manual: true})

	// A whole journal page of retirements published in the open epoch and
	// written back early before its close, so that early journal pages do
	// not depend on how the passes below happen to be scheduled.
	var tracks atomic.Int64
	pre := s.Register()
	var gone []Block
	for k := uint64(0); k < pageRecords; k++ {
		gone = append(gone, putKV(pre, workers*keys+k, k))
		tracks.Add(1)
	}
	retireAll(pre, gone)
	s.FlushEarly()
	earlyBase := s.Stats().EarlyFlushedBlocks

	var stop atomic.Bool
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for !stop.Load() {
			s.FlushEarly()
		}
	}()
	go func() {
		defer bg.Done()
		for !stop.Load() {
			s.AdvanceOnce()
			s.FlushOnce()
			time.Sleep(50 * time.Microsecond)
		}
	}()

	want := make([]map[uint64]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := s.Register()
			live := map[uint64]Block{}
			want[g] = map[uint64]uint64{}
			// Past ops, keep going — for a while — until some concurrent early
			// pass has written a block back: on a loaded host the workers can
			// otherwise finish before the early-pass goroutine is first
			// scheduled.
			var lastEpoch, deletes uint64
			for i := uint64(0); i < ops || s.earlyFlushed.Load() == earlyBase && i < 100*ops; i++ {
				k := uint64(g)*keys + i*7%keys
				e := w.BeginOp()
				if e != lastEpoch {
					lastEpoch, deletes = e, 0
				}
				b, ok := live[k]
				switch {
				case ok && i%5 == 4 && deletes < keys:
					// Delete, up to keys times an epoch: on a loaded host an
					// epoch can outlast thousands of ops, and a worker that
					// kept deleting and recreating would allocate a block
					// every few ops with nothing freed until the epoch closes.
					deletes++
					w.PRetire(b)
					delete(live, k)
					delete(want[g], k)
				case ok && b.Epoch() == e:
					b.Store(1, i) // in place, then re-track
					w.PTrack(b)
					tracks.Add(1)
					want[g][k] = i
				default:
					nb := w.NewKV(0)
					nb.InitKV(k, i)
					hdr := s.alloc.ReadHeader(nb.Addr())
					hdr.Epoch = e
					s.alloc.WriteHeader(nb.Addr(), hdr)
					w.PTrack(nb)
					if ok {
						w.PRetire(b)
					}
					live[k] = nb
					tracks.Add(1)
					want[g][k] = i
				}
				w.EndOp()
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	bg.Wait()
	s.Sync()

	st := s.Stats()
	if st.FlushedBlocks != tracks.Load() || st.EarlyFlushedBlocks == earlyBase || st.EarlyFlushedBlocks > st.FlushedBlocks {
		t.Fatalf("%d trackings: flushed %d, of them early %d (%d before the workers); want every tracking flushed once, some early while they ran",
			tracks.Load(), st.FlushedBlocks, st.EarlyFlushedBlocks, earlyBase)
	}
	if st.JournalRecords != st.RetiredBlocks || st.FreedBlocks != st.RetiredBlocks ||
		st.JournalEarlyRecords == 0 || st.JournalEarlyRecords > st.JournalRecords {
		t.Fatalf("%d retirements: %d journaled, %d freed, %d journaled early; want every one journaled once and freed, some early",
			st.RetiredBlocks, st.JournalRecords, st.FreedBlocks, st.JournalEarlyRecords)
	}
	s.SimulateCrash(nvm.CrashOptions{})
	_, got := recoverAll(h)
	n := 0
	for g := range want {
		for k, v := range want[g] {
			n++
			if got[k] != v {
				t.Fatalf("worker %d key %d recovered as %d, want %d", g, k, got[k], v)
			}
		}
	}
	if len(got) != n {
		t.Fatalf("recovered %d keys, want %d", len(got), n)
	}
}

// TestWorkerWaitsForLaggingFlusher is the flow control of early.go: with
// the flusher held up, a worker's operations run until its published
// backlog reaches twice the threshold, and the one that reaches it waits
// after EndOp, announcing no epoch, until the flusher's pass has taken the
// backlog. With no flusher goroutine left, nothing waits.
func TestWorkerWaitsForLaggingFlusher(t *testing.T) {
	const at = 4
	h := nvm.New(nvm.Config{Words: 1 << 16})
	s := New(h, Config{EpochLength: time.Hour}) // the advancer never fires
	w := s.Register()
	s.earlyAt.Store(at)
	s.taskMu.Lock() // the flusher's next pass waits for this
	var ended atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := uint64(0); k < 2*at; k++ {
			putKV(w, k, k)
			ended.Add(1)
		}
	}()
	select {
	case <-done:
		t.Fatal("the worker ran 2×threshold operations past a held-up flusher")
	case <-time.After(50 * time.Millisecond):
	}
	if n, ann := ended.Load(), w.ann.Load(); n != 2*at-1 || ann != 0 {
		t.Fatalf("waiting worker: %d operations returned, announcing epoch %d; want %d and none", n, ann, 2*at-1)
	}
	s.taskMu.Unlock()
	<-done
	if st := s.Stats(); st.EarlyFlushedBlocks != 2*at {
		t.Fatalf("the pass the worker waited for wrote back %d blocks, want %d", st.EarlyFlushedBlocks, 2*at)
	}

	s.Stop()
	s.earlyAt.Store(at)
	for k := uint64(0); k < 4*at; k++ {
		putKV(w, k, k) // would wait forever if it waited for a stopped flusher
	}
}

// TestEarlyThresholdIgnoresOneSlowWriteBack pins the estimator's
// robustness: a write-back's wall time includes any time the flusher sat
// descheduled, so one write-back ten times as slow as a run of equal ones
// must not move the threshold by half or more.
func TestEarlyThresholdIgnoresOneSlowWriteBack(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 18})
	s := New(h, Config{EpochLength: time.Hour}) // the advancer never fires
	defer s.Stop()
	const blocks = 2 * costSample
	note := func(perBlock time.Duration) int64 {
		s.taskMu.Lock()
		defer s.taskMu.Unlock()
		s.noteCost(perBlock*blocks, blocks)
		return s.earlyAt.Load()
	}
	var steady int64
	for i := 0; i < 2*costWindow; i++ {
		steady = note(time.Microsecond)
	}
	slow := note(10 * time.Microsecond)
	if slow <= steady/2 || slow >= steady*2 {
		t.Fatalf("one write-back 10x as slow moved the threshold %d -> %d, want within 2x", steady, slow)
	}
}
