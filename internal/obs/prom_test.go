package obs

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bdhtm/internal/wire"
)

// TestWriteOpenMetricsLints: a populated recorder's exposition must pass
// its own linter and carry the stable family names the scrape configs
// and dashboards key on.
func TestWriteOpenMetricsLints(t *testing.T) {
	clk := &fakeClock{}
	r := NewWithClock("prom-test", clk.now)
	r.EndOp(OpInsert, 0, r.Now())
	r.Attempt(OutCommit, 0, r.Now())
	r.Attempt(OutConflict, 1, r.Now())
	r.SvcRecord(SvcAppliedAckNS, 0, 120)
	r.SvcRecord(SvcDurableAckNS, 0, 90000)
	r.SvcRecord(SvcAckLagEpochs, 0, 2)

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf, &wire.StatsSnap{FlusherDepth: 1, Requests: 7}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := LintOpenMetrics(buf.Bytes()); err != nil {
		t.Fatalf("own exposition fails lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE bdhtm_flusher_depth gauge",
		"\nbdhtm_flusher_depth 1\n",
		"\nbdhtm_requests 7\n",
		"# TYPE bdhtm_op_latency_ns histogram",
		`op="insert"`,
		"# TYPE bdhtm_attempt_latency_ns histogram",
		`outcome="conflict"`,
		"# TYPE bdhtm_svc_applied_ack_ns histogram",
		"bdhtm_svc_applied_ack_ns_count 1",
		"# EOF\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatal("exposition must end with # EOF")
	}
}

// TestWriteOpenMetricsEmptyRecorder: a fresh recorder with no counters
// still produces a well-formed (lintable) exposition.
func TestWriteOpenMetricsEmptyRecorder(t *testing.T) {
	r := New("empty")
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := LintOpenMetrics(buf.Bytes()); err != nil {
		t.Fatalf("empty exposition fails lint: %v\n%s", err, buf.String())
	}
}

// TestWriteOpenMetricsStructFields: every field of a counters struct
// renders exactly once, as a gauge family of its own named after the
// field, whatever its integer kind; a non-integer field is refused.
func TestWriteOpenMetricsStructFields(t *testing.T) {
	var snap wire.StatsSnap
	v := reflect.ValueOf(&snap).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(1000 + i)) // distinct values name the field
	}
	var buf bytes.Buffer
	var nilRec *Recorder
	if err := nilRec.WriteOpenMetrics(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if err := LintOpenMetrics(buf.Bytes()); err != nil {
		t.Fatalf("struct exposition fails lint: %v\n%s", err, buf.String())
	}
	families := map[string]string{} // sample value -> family
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			if prev, dup := families[f[1]]; dup {
				t.Fatalf("value %s rendered twice (%s, %s)", f[1], prev, f[0])
			}
			families[f[1]] = f[0]
		}
	}
	if len(families) != v.NumField() {
		t.Fatalf("%d samples for %d fields:\n%s", len(families), v.NumField(), buf.String())
	}
	for i := 0; i < v.NumField(); i++ {
		name := families[strconv.Itoa(1000+i)]
		if strings.Count(buf.String(), "# TYPE "+name+" gauge\n") != 1 {
			t.Errorf("field %s: family %q not declared exactly once as a gauge", v.Type().Field(i).Name, name)
		}
	}
	for field, want := range map[string]string{
		"FlusherDepth":    "bdhtm_flusher_depth",
		"MaxAckLagEpochs": "bdhtm_max_ack_lag_epochs",
		"OldestUnackedNS": "bdhtm_oldest_unacked_ns",
		"TxCommits":       "bdhtm_tx_commits",
	} {
		f, _ := v.Type().FieldByName(field)
		if got := families[strconv.Itoa(1000+f.Index[0])]; got != want {
			t.Errorf("field %s renders as %q, want %q", field, got, want)
		}
	}

	signed := struct {
		Depth int64
		Lag   int32
	}{-1, 2}
	buf.Reset()
	if err := nilRec.WriteOpenMetrics(&buf, &signed); err != nil ||
		!strings.Contains(buf.String(), "\nbdhtm_depth -1\n") || !strings.Contains(buf.String(), "\nbdhtm_lag 2\n") {
		t.Errorf("signed fields: err %v\n%s", err, buf.String())
	}
	if err := nilRec.WriteOpenMetrics(&buf, struct{ Name string }{"x"}); err == nil {
		t.Error("a string field was rendered as a counter")
	}
}

func TestLintOpenMetricsRejects(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{
			"missing-eof",
			"# TYPE x_total counter\nx_total 1\n",
			"EOF",
		},
		{
			"counter-without-total",
			"# TYPE x counter\nx 1\n# EOF\n",
			"_total",
		},
		{
			"undeclared-sample",
			"y_bogus 1\n# EOF\n",
			"TYPE declaration",
		},
		{
			"bad-le",
			"# TYPE h histogram\nh_bucket{le=\"zebra\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n# EOF\n",
			"le",
		},
		{
			"non-increasing-le",
			"# TYPE h histogram\nh_bucket{le=\"3\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 0\nh_count 2\n# EOF\n",
			"le",
		},
		{
			"non-cumulative",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 0\nh_count 5\n# EOF\n",
			"cumulative",
		},
		{
			"count-mismatch",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0\nh_count 7\n# EOF\n",
			"count",
		},
		{
			"bad-value",
			"# TYPE g gauge\ng banana\n# EOF\n",
			"value",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := LintOpenMetrics([]byte(c.text))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want error containing %q, got %v", c.want, err)
			}
		})
	}
	good := "# TYPE x counter\nx_total 1\n# EOF\n"
	if err := LintOpenMetrics([]byte(good)); err != nil {
		t.Fatalf("minimal valid exposition rejected: %v", err)
	}
}
