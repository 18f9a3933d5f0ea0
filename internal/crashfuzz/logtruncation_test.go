package crashfuzz

import (
	"testing"

	"bdhtm/internal/nvm"
)

// TestCrashMidLogTruncation is the deterministic companion to the fuzzed
// engine rounds: it power-fails a redo-logging engine on the very first
// flush of its log entries at epoch close, so the log is truncated and
// the commit record is never written. Recovery must then discard the
// truncated segment — the watermark stays at the previous commit and the
// recovered contents are exactly the last quiesced state.
func TestCrashMidLogTruncation(t *testing.T) {
	p := Resolve(RoundParams{
		Subject: "bdhash", Seed: 0xbd7e10c, Ops: 48, Workers: 1, KeySpace: 64,
		CrashEvents: 1, AdvEvery: 8, Shards: 1, Async: 0, Engine: "redo2f",
	})
	p.Evict, p.Spurious, p.MemType = 0, 0, 0
	sub, err := NewSubject(p.Subject)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(p, sub, DefaultHeapWords)

	// Buffered traffic with periodic advances, then quiesce so the log
	// discipline has committed (and cleared its record) cleanly.
	for i := 0; i < p.Ops; i++ {
		if i > 0 && i%p.AdvEvery == 0 {
			s.advance()
		}
		if err := s.op(0, uint64(i)%p.KeySpace); err != nil {
			t.Fatal(err)
		}
	}
	s.advance()
	s.advance()
	prevP := s.sub.PersistedEpoch()

	// More buffered mutations so the next epoch close has entries to log,
	// then panic on the first persist event of that close: for a redo
	// engine that is the flush of the first log-entry line.
	for i := 0; i < 6; i++ {
		if err := s.op(0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var point nvm.PersistPoint
	var addr nvm.Addr
	s.sub.Heap().SetPersistHook(func(pt nvm.PersistPoint, a nvm.Addr) {
		point, addr = pt, a
		panic(crashSentinel{point: pt})
	})
	crashed, err := catchCrash(func() error { s.advance(); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !crashed {
		t.Fatal("epoch close completed without a single persist event")
	}
	if point != nvm.PointFlush {
		t.Fatalf("crashed at %v, want the engine's first log flush", point)
	}
	// The first flush must target the engine-owned log region between the
	// heap root and the allocator's first slab.
	if addr < nvm.Addr(nvm.RootWords) || addr >= 4096 {
		t.Fatalf("first persist event at word %d, want a log-region flush", addr)
	}

	// crashCheck power-fails with Evict=0, recovers, and verifies the
	// recovered contents equal the end-of-epoch snapshot at the boundary.
	if err := s.crashCheck(false); err != nil {
		t.Fatal(err)
	}
	if got := s.sub.PersistedEpoch(); got != prevP {
		t.Fatalf("watermark moved across a truncated-log recovery: %d -> %d", prevP, got)
	}

	// Liveness: the recovered system still commits epochs.
	for i := 0; i < 8; i++ {
		if err := s.op(0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.advance()
	if err := s.crashCheck(false); err != nil {
		t.Fatal(err)
	}
}
