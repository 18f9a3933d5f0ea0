package obs

import (
	"testing"
)

// scripted returns a recorder driven by a deterministic clock that
// advances by step nanoseconds per reading.
func scripted(step int64) (*Recorder, *int64) {
	var t int64
	r := NewWithClock(func() int64 {
		t += step
		return t
	})
	return r, &t
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 {
		t.Errorf("nil Now = %d", r.Now())
	}
	r.EndOp(OpInsert, 3, 17)
	r.Attempt(OutConflict, 1, 5)
	if end := r.Phase(PhaseFlush, 9, 2); end != 0 {
		t.Errorf("nil Phase = %d", end)
	}
	if h := r.OpHist(OpInsert); h.Count != 0 {
		t.Errorf("nil OpHist count = %d", h.Count)
	}
	if h := r.AttemptHist(OutCommit); h.Count != 0 {
		t.Errorf("nil AttemptHist count = %d", h.Count)
	}
	if h := r.PhaseHist(PhaseRoot); h.Count != 0 {
		t.Errorf("nil PhaseHist count = %d", h.Count)
	}
	r.SvcRecord(SvcAckLagNS, 0, 5)
	if h := r.SvcSnapshot(SvcAckLagNS); h.Count != 0 {
		t.Errorf("nil SvcSnapshot count = %d", h.Count)
	}
	if sr := r.EnableSpans(16, 1); sr != nil {
		t.Errorf("nil EnableSpans = %v", sr)
	}
	if sr := r.SpanRing(); sr != nil {
		t.Errorf("nil SpanRing = %v", sr)
	}
}

// TestNilRecorderIsCheap pins the disabled-path cost: recording onto a
// nil recorder must not allocate. (The single nil branch itself is not
// measurable from Go, but any accidental boxing or map touch is.)
func TestNilRecorderIsCheap(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		start := r.Now()
		r.EndOp(OpInsert, 42, start)
		r.Attempt(OutCommit, 42, start)
		r.Phase(PhaseFlush, 1, start)
	})
	if allocs != 0 {
		t.Fatalf("disabled recording allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEnabledRecordingIsAllocFree pins the enabled hot path: histograms
// are pre-sized arrays of atomics, so steady-state recording must not
// allocate either.
func TestEnabledRecordingIsAllocFree(t *testing.T) {
	r, _ := scripted(5)
	allocs := testing.AllocsPerRun(1000, func() {
		start := r.Now()
		r.EndOp(OpLookup, 3, start)
		r.Attempt(OutCommit, 3, start)
	})
	if allocs != 0 {
		t.Fatalf("enabled recording allocates %.1f objects/op, want 0", allocs)
	}
}

func TestRecorderDeterministicLatencies(t *testing.T) {
	// Clock advances 10ns per reading: EndOp(start=Now()) therefore
	// records exactly 10ns per op.
	r, _ := scripted(10)
	const n = 100
	for i := 0; i < n; i++ {
		start := r.Now()
		r.EndOp(OpInsert, uint64(i), start)
	}
	h := r.OpHist(OpInsert)
	if h.Count != n {
		t.Fatalf("insert count = %d, want %d", h.Count, n)
	}
	if h.SumNS != n*10 {
		t.Errorf("insert sum = %d, want %d", h.SumNS, n*10)
	}
	if h.MaxNS != 10 {
		t.Errorf("insert max = %d, want 10", h.MaxNS)
	}
	// 10ns lands in bucket 9, [10, 11].
	if got := h.Buckets[9]; got != n {
		t.Errorf("bucket[9] = %d, want %d (buckets %v)", got, n, h.Buckets)
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Errorf("p50 = %d, want 10 (clamped to max)", q)
	}
}

func TestRecorderAttemptAndPhase(t *testing.T) {
	r, _ := scripted(7)
	start := r.Now()
	r.Attempt(OutMemType, 0, start)
	r.Attempt(OutCommit, 0, r.Now())

	if h := r.AttemptHist(OutMemType); h.Count != 1 || h.SumNS != 7 {
		t.Errorf("memtype hist = %+v, want count 1 sum 7", h)
	}
	if h := r.AttemptHist(OutCommit); h.Count != 1 {
		t.Errorf("commit hist count = %d, want 1", h.Count)
	}

	// Phase chaining: the returned end timestamp is the next start.
	t0 := r.Now()
	t1 := r.Phase(PhaseQuiesce, 3, t0)
	if t1 != t0+7 {
		t.Fatalf("Phase returned %d, want %d", t1, t0+7)
	}
	t2 := r.Phase(PhaseFlush, 3, t1)
	if t2 != t1+7 {
		t.Fatalf("chained Phase returned %d, want %d", t2, t1+7)
	}
	for _, p := range []EpochPhase{PhaseQuiesce, PhaseFlush} {
		if h := r.PhaseHist(p); h.Count != 1 || h.SumNS != 7 {
			t.Errorf("%v hist = %+v, want count 1 sum 7", p, h)
		}
	}
}

// TestRecorderMetricsAndSnapshot: the typed accessors read each
// histogram on its own — a remove lands in the remove histogram only.
func TestRecorderMetricsAndSnapshot(t *testing.T) {
	r, _ := scripted(1)
	r.EndOp(OpRemove, 0, r.Now())

	if n := r.OpHist(OpInsert).Count; n != 0 {
		t.Errorf("insert count = %d, want 0", n)
	}
	if n := r.OpHist(OpRemove).Count; n != 1 {
		t.Errorf("remove count = %d, want 1", n)
	}
}

// TestSnapshotInvariants is the generic cross-check the deterministic
// suite leans on: total histogram count equals the number of recorded
// calls, attempts split exactly into commit + abort outcomes.
func TestSnapshotInvariants(t *testing.T) {
	r, _ := scripted(3)
	const commits, aborts, ops = 17, 5, 29
	for i := 0; i < commits; i++ {
		r.Attempt(OutCommit, uint64(i), r.Now())
	}
	for i := 0; i < aborts; i++ {
		r.Attempt(OutConflict, uint64(i), r.Now())
	}
	for i := 0; i < ops; i++ {
		r.EndOp(OpLookup, uint64(i), r.Now())
	}
	var attempts int64
	for o := Outcome(0); o < NumOutcomes; o++ {
		attempts += r.AttemptHist(o).Count
	}
	if attempts != commits+aborts {
		t.Errorf("attempt histogram total = %d, want %d", attempts, commits+aborts)
	}
	if got := r.AttemptHist(OutCommit).Count; got != commits {
		t.Errorf("commit count = %d, want %d", got, commits)
	}
	var total int64
	for k := OpKind(0); k < NumOps; k++ {
		total += r.OpHist(k).Count
	}
	if total != ops {
		t.Errorf("op histogram total = %d, want %d", total, ops)
	}
}

func TestEnumStrings(t *testing.T) {
	// The exporters key on these names; lock them.
	cases := []struct{ got, want string }{
		{OpInsert.String(), "insert"},
		{OpRemove.String(), "remove"},
		{OpLookup.String(), "lookup"},
		{OutCommit.String(), "commit"},
		{OutPersistOp.String(), "persist-op"},
		{PhaseQuiesce.String(), "quiesce"},
		{PhaseReclaim.String(), "reclaim"},
		{SpanDecode.String(), "decode"},
		{SpanDurable.String(), "durable"},
		{OpKind(99).String(), "OpKind(99)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}
