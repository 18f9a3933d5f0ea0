package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"bdhtm/internal/harness"
	"bdhtm/internal/obs"
	"bdhtm/internal/ycsb"
)

// TestObsSummaryExposition: the -obs summary (the recorder's OpenMetrics
// text, as /metrics serves it) of a recorder fed by a harness run lints
// clean, and its op histograms count every operation the run made,
// prefill included.
func TestObsSummaryExposition(t *testing.T) {
	const keySpace, ops = 1 << 10, 600
	rec := obs.New()
	inst := harness.New("bdhash", harness.Opts{KeySpace: keySpace, Obs: rec, Manual: true})
	defer inst.Close()
	wl := harness.Workload{KeySpace: keySpace, Mix: ycsb.WriteHeavy, Prefill: true}
	harness.RunOps(inst, wl, 1, ops, 1)

	var buf bytes.Buffer
	if err := rec.WriteOpenMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := obs.LintOpenMetrics(buf.Bytes()); err != nil {
		t.Fatalf("summary fails lint: %v\n%s", err, buf.Bytes())
	}
	var total int64
	for _, op := range []string{"insert", "lookup", "remove"} {
		prefix := fmt.Sprintf("bdhtm_op_latency_ns_count{op=%q} ", op)
		var n int64 = -1
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				n, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		if n <= 0 {
			t.Fatalf("%s count = %d, want > 0:\n%s", op, n, buf.Bytes())
		}
		total += n
	}
	if want := int64(keySpace/2 + ops); total != want {
		t.Fatalf("op histograms count %d operations, want %d (prefill + run)", total, want)
	}
}
