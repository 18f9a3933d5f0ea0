package epoch

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bdhtm/internal/nvm"
)

// TestSyncClosesOneEpoch: with a flusher goroutine, Sync closes the active
// epoch and waits for its flush — one advance, no second (empty) epoch
// closed just to block on backpressure.
func TestSyncClosesOneEpoch(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 16})
	s := New(h, Config{EpochLength: time.Hour}) // the advancer never fires
	w := s.Register()
	putKV(w, 7, 70)
	e := s.GlobalEpoch()
	s.Sync()
	if g, p := s.GlobalEpoch(), s.PersistedEpoch(); g != e+1 || p != e {
		t.Fatalf("after Sync global=%d persisted=%d, want %d/%d", g, p, e+1, e)
	}
	if st := s.Stats(); st.Advances != 1 || st.Backpressure != 0 {
		t.Fatalf("Sync took %d advances with %d backpressure waits, want 1 and 0", st.Advances, st.Backpressure)
	}
	s.SimulateCrash(nvm.CrashOptions{})
	_, got := recoverAll(h)
	if got[7] != 70 {
		t.Fatalf("recovered %v, want key 7 -> 70", got)
	}
}

// TestAdvanceEventOrder pins the per-advance order of persist events in
// both Manual schedules, which crash-step replay indexes into: with the
// flusher step lagging (no FlushOnce) an advance flushes e-1 and then
// publishes e+1, so its persist events all see the old clock; with the
// flusher step run right after each advance, the advance publishes e+1
// without a persist event and the flush of e sees the new clock.
func TestAdvanceEventOrder(t *testing.T) {
	type step struct {
		Name      string
		Clocks    []uint64 // distinct GlobalEpoch values its persist events saw, in order
		Persisted uint64   // PersistedEpoch once it returned
	}
	run := func(flush bool) (steps []step) {
		h := nvm.New(nvm.Config{Words: 1 << 16})
		s := New(h, Config{Manual: true})
		defer s.Stop()
		w := s.Register()
		var cur *step
		h.SetPersistHook(func(nvm.PersistPoint, nvm.Addr) {
			if cur == nil {
				return // an operation's own allocation flush
			}
			if g, n := s.GlobalEpoch(), len(cur.Clocks); n == 0 || cur.Clocks[n-1] != g {
				cur.Clocks = append(cur.Clocks, g)
			}
		})
		do := func(name string, fn func()) {
			cur = &step{Name: name}
			fn()
			cur.Persisted = s.PersistedEpoch()
			steps = append(steps, *cur)
			cur = nil
		}
		for i := 0; i < 3; i++ {
			putKV(w, uint64(i), uint64(i))
			do("advance", s.AdvanceOnce)
			if flush {
				do("flush", s.FlushOnce)
			}
		}
		return steps
	}

	// A fresh system starts at clock 2 with epoch 0 persisted.
	lag := []step{
		{"advance", []uint64{2}, 1}, // catch-up of epoch 1, then publish 3
		{"advance", []uint64{3}, 2}, // flush 2, then publish 4
		{"advance", []uint64{4}, 3}, // flush 3, then publish 5
	}
	eager := []step{
		{"advance", []uint64{2}, 1}, // catch-up of epoch 1, then publish 3
		{"flush", []uint64{3}, 2},
		{"advance", nil, 2}, // publish 4: no persist event
		{"flush", []uint64{4}, 3},
		{"advance", nil, 3},
		{"flush", []uint64{5}, 4},
	}
	if got := run(false); !reflect.DeepEqual(got, lag) {
		t.Errorf("lagging schedule:\n got %v\nwant %v", got, lag)
	}
	if got := run(true); !reflect.DeepEqual(got, eager) {
		t.Errorf("eager schedule:\n got %v\nwant %v", got, eager)
	}
}

// TestFlusherDeath: a persist hook that simulates a power failure panics
// on the flusher goroutine mid-flush. The epoch it abandoned stays within
// the window — a crash right there recovers to the last landed epoch —
// and if the process lives on, the next AdvanceOnce drains it inline.
func TestFlusherDeath(t *testing.T) {
	for _, crashAtOnce := range []bool{true, false} {
		h := nvm.New(nvm.Config{Words: 1 << 16})
		s := New(h, Config{EpochLength: time.Hour}) // the test owns every advance
		w := s.Register()
		putKV(w, 1, 10)
		s.Sync() // epoch 2 lands: persisted 2, global 3
		putKV(w, 2, 20)

		var armed atomic.Bool
		h.SetPersistHook(func(nvm.PersistPoint, nvm.Addr) {
			if armed.CompareAndSwap(true, false) {
				panic("power failure")
			}
		})
		armed.Store(true)
		s.AdvanceOnce() // hands epoch 3 to the flusher, which dies on its first persist event
		<-s.flusherDone
		if g, p := s.GlobalEpoch(), s.PersistedEpoch(); g != 4 || p != 2 {
			t.Fatalf("after flusher death global=%d persisted=%d, want 4/2", g, p)
		}

		if !crashAtOnce {
			s.AdvanceOnce() // no flusher left: drains epoch 3 inline, hands off 4
			if g, p := s.GlobalEpoch(), s.PersistedEpoch(); g != 5 || p != 3 {
				t.Fatalf("after inline drain global=%d persisted=%d, want 5/3", g, p)
			}
			s.FlushOnce() // and the flusher step is the caller's now
			if g, p := s.GlobalEpoch(), s.PersistedEpoch(); g != 5 || p != 4 {
				t.Fatalf("after FlushOnce global=%d persisted=%d, want 5/4", g, p)
			}
			if bp := s.Stats().Backpressure; bp != 0 {
				t.Fatalf("inline drains counted %d backpressure waits", bp)
			}
		}
		crashEpoch := s.GlobalEpoch()
		s.SimulateCrash(nvm.CrashOptions{})
		s2, got := recoverAll(h)
		if p := s2.PersistedEpoch(); p+2 < crashEpoch {
			t.Fatalf("window violated: recovered to %d after a crash in epoch %d", p, crashEpoch)
		}
		if got[1] != 10 {
			t.Fatalf("recovered %v, lost key 1 from a landed epoch", got)
		}
		if _, ok := got[2]; ok && crashAtOnce {
			t.Fatalf("recovered %v: key 2's epoch never persisted", got)
		}
	}
}
