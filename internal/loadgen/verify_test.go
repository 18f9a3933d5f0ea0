package loadgen

import (
	"strings"
	"testing"

	"bdhtm/internal/wire"
)

// TestVerifyGate feeds the ack-ledger gate a balanced run, then each of
// its seven violations in turn; each must be refused with its own reason.
func TestVerifyGate(t *testing.T) {
	const want = 100
	ok := Result{Ops: want, Reads: 40, Writes: 60, AppliedAcks: 60, DurableAcks: 60}
	srv := wire.StatsSnap{WriteCommits: 60, AppliedAcks: 60, DurableAcks: 60}
	if err := ok.Verify(want, srv); err != nil {
		t.Fatalf("balanced ledger refused: %v", err)
	}
	for _, tc := range []struct {
		reason string
		res    func(*Result)
		srv    func(*wire.StatsSnap)
	}{
		{"completed 99/100 ops", func(r *Result) { r.Ops-- }, nil},
		{"duplicated or reordered", func(r *Result) { r.DupAcks = 1 }, nil},
		{"error frames", func(r *Result) { r.Errors = 1 }, nil},
		{"dropped durable acks", func(r *Result) { r.DurableAcks-- }, func(s *wire.StatsSnap) { s.DurableAcks-- }},
		{"dropped applied acks", func(r *Result) { r.AppliedAcks-- }, func(s *wire.StatsSnap) { s.AppliedAcks-- }},
		{"ack ledgers differ", nil, func(s *wire.StatsSnap) { s.DurableAcks++ }},
		{"ack ledgers differ", nil, func(s *wire.StatsSnap) { s.AppliedAcks-- }},
		{"server committed 61 writes", nil, func(s *wire.StatsSnap) { s.WriteCommits++ }},
	} {
		res, snap := ok, srv
		if tc.res != nil {
			tc.res(&res)
		}
		if tc.srv != nil {
			tc.srv(&snap)
		}
		err := res.Verify(want, snap)
		if err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%+v against server %+v: got %v, want %q", res, snap, err, tc.reason)
		}
	}
}
