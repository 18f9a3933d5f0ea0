package crashfuzz

import "testing"

// Real-time order implies epoch order across keys on buffered rounds: an
// op that started after another ended may not report an older epoch.
// Overlapping ops, failed removes and strict rounds are unconstrained.
func TestCheckWindowEpochOrder(t *testing.T) {
	ins := func(k, start, end, epoch uint64) opRec {
		return opRec{insert: true, k: k, v: k, ok: true, start: start, end: end, epoch: epoch}
	}
	recovered := map[uint64]uint64{1: 1, 2: 2}
	for _, tc := range []struct {
		name     string
		history  []opRec
		buffered bool
		bad      bool
	}{
		{"ordered", []opRec{ins(1, 1, 2, 5), ins(2, 3, 4, 5)}, true, false},
		{"later op in an older epoch", []opRec{ins(1, 1, 2, 5), ins(2, 3, 4, 4)}, true, true},
		{"overlapping", []opRec{ins(1, 1, 3, 5), ins(2, 2, 4, 4)}, true, false},
		{"failed remove carries no epoch claim", []opRec{ins(1, 1, 2, 5), {k: 3, start: 3, end: 4, epoch: 4}, ins(2, 5, 6, 5)}, true, false},
		{"strict", []opRec{ins(1, 1, 2, 5), ins(2, 3, 4, 4)}, false, false},
	} {
		err := checkWindow(tc.history, 5, tc.buffered, recovered)
		if (err != nil) != tc.bad {
			t.Errorf("%s: checkWindow = %v, want error %v", tc.name, err, tc.bad)
		}
	}
}
