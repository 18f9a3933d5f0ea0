package epoch

import (
	"testing"
	"time"

	"bdhtm/internal/nvm"
)

// TestSubscribeDurableManual: every manual advance must wake the
// subscriber, and the watermark read after the wake must cover the
// epoch that just persisted.
func TestSubscribeDurableManual(t *testing.T) {
	_, s := newManual(t, 1<<16)
	defer s.Stop()

	ch := make(chan uint64, 1)
	cancel := s.SubscribeDurable(ch)
	defer cancel()

	for i := 0; i < 5; i++ {
		before := s.PersistedEpoch()
		s.AdvanceOnce()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("advance %d: no durable notification", i)
		}
		if p := s.PersistedEpoch(); p != before+1 {
			t.Fatalf("advance %d: watermark %d, want %d", i, p, before+1)
		}
	}
}

// TestSubscribeDurableCoalesces: a full channel must not block the
// advance path; the subscriber catches up by re-reading the watermark.
func TestSubscribeDurableCoalesces(t *testing.T) {
	_, s := newManual(t, 1<<16)
	defer s.Stop()

	ch := make(chan uint64, 1)
	cancel := s.SubscribeDurable(ch)
	defer cancel()

	// Never drain: the second..fifth advances must drop their wakes
	// rather than deadlock.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5; i++ {
			s.AdvanceOnce()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("advance blocked on a full subscriber channel")
	}
	<-ch // one coalesced wake is pending
	if p, g := s.PersistedEpoch(), s.GlobalEpoch(); p != g-2 {
		t.Fatalf("watermark %d lags global %d by more than the BDL window", p, g)
	}
}

// TestSubscribeDurableCancel: after cancel, advances stop delivering,
// and cancel is idempotent.
func TestSubscribeDurableCancel(t *testing.T) {
	_, s := newManual(t, 1<<16)
	defer s.Stop()

	ch := make(chan uint64, 1)
	cancel := s.SubscribeDurable(ch)
	s.AdvanceOnce()
	<-ch
	cancel()
	cancel()
	s.AdvanceOnce()
	select {
	case p := <-ch:
		t.Fatalf("notification %d after cancel", p)
	default:
	}
}

// TestSubscribeDurableBackground: notifications also fire from the
// background flusher goroutine.
func TestSubscribeDurableBackground(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 16})
	s := New(h, Config{EpochLength: 200 * time.Microsecond})
	defer s.Stop()
	ch := make(chan uint64, 1)
	cancel := s.SubscribeDurable(ch)
	defer cancel()
	start := s.PersistedEpoch()
	deadline := time.After(10 * time.Second)
	for s.PersistedEpoch() < start+3 {
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("watermark stuck at %d", s.PersistedEpoch())
		}
	}
}
