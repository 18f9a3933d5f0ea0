package crashfuzz

import "testing"

// TestCrashMidFallbackWrite pins power failures while operations run in
// session mode: with a spurious-abort rate of 1 no transactional attempt
// ever reaches its body, so every insert and remove runs its body as a
// slow-path session — after a full retry budget at first, after one probe
// once the TM has taken its fast path for dead (htm.TM.Budget) — and the
// persist hook then power-fails at the n-th persist event past the crash
// point. crashCheck asserts the full BDL window on the recovered image for
// every buffered subject.
//
// Crashing mid-session is the interesting schedule: a session's writes
// are buffered and applied at finish, so a power failure must never
// observe a half-applied session ahead of the recovery boundary.
func TestCrashMidFallbackWrite(t *testing.T) {
	for _, subject := range []string{"bdhash", "veb", "skiplist", "spash"} {
		subject := subject
		t.Run(subject, func(t *testing.T) {
			t.Parallel()
			for _, step := range []int{1, 2, 3, 5, 9, 15} {
				p := RoundParams{
					Subject: subject, Seed: 0xf6bd0000 + uint64(step),
					Ops: 32, Workers: 1, KeySpace: 32, Evict: 1,
					CrashEvents: 1, CrashAfter: 10, CrashStep: step,
					TailAdvances: 1, AdvEvery: 5, Spurious: 1, MemType: 0,
					Shards: 1, Async: 0,
				}
				if f := RunRound(p); f != nil {
					t.Fatalf("crash-step %d: %s", step, f.Error())
				}
			}
		})
	}
}

// TestConcurrentFallbackRounds runs multi-worker rounds with heavy abort
// injection, so fallback sessions, commit
// write-backs, and session restarts interleave across workers before the
// quiesced crash; the linearizability-window checker then validates the
// recovered state.
func TestConcurrentFallbackRounds(t *testing.T) {
	for _, subject := range []string{"bdhash", "veb", "skiplist", "spash"} {
		subject := subject
		t.Run(subject, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < 4; i++ {
				p := RoundParams{
					Subject: subject, Seed: 0xfb9d0000 + uint64(i),
					Ops: 60, Workers: 4, KeySpace: 16, Evict: 0.8,
					CrashEvents: 1, CrashAfter: 0, CrashStep: 0,
					TailAdvances: 1, AdvEvery: 4, Spurious: 0.5, MemType: 0.01,
					Shards: 1, Async: 0,
				}
				if f := RunRound(p); f != nil {
					t.Fatalf("round %d: %s", i, f.Error())
				}
			}
		})
	}
}
