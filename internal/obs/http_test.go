package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// counterSource returns a counters func serving a one-field struct.
func counterSource(reqs int64) func() any {
	return func() any { return struct{ ServeReqs int64 }{reqs} }
}

// TestStartHTTPEndpoints: one endpoint serves /metrics (lintable
// OpenMetrics of the recorder's histograms and the counters) and
// /debug/pprof; there is no /obs view beside it.
func TestStartHTTPEndpoints(t *testing.T) {
	r := New()
	r.EndOp(OpInsert, 1, r.Now())
	h, err := StartHTTP("127.0.0.1:0", r, counterSource(3))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	base := "http://" + h.Addr()

	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := LintOpenMetrics(body); err != nil {
		t.Fatalf("/metrics fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{"\nbdhtm_serve_reqs 3\n", "\nbdhtm_op_latency_ns_count{op=\"insert\"} 1\n"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	if code, _ := httpGet(t, base+"/obs"); code != http.StatusNotFound {
		t.Fatalf("/obs status %d, want %d", code, http.StatusNotFound)
	}
	if code, _ := httpGet(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

// TestStartHTTPTwice: two concurrent endpoints must coexist (the old
// implementation panicked on the second DefaultServeMux registration),
// each serving its own counters.
func TestStartHTTPTwice(t *testing.T) {
	h1, err := StartHTTP("127.0.0.1:0", New(), counterSource(1))
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Close()
	h2, err := StartHTTP("127.0.0.1:0", New(), counterSource(2))
	if err != nil {
		t.Fatalf("second StartHTTP: %v", err)
	}
	defer h2.Close()

	_, b1 := httpGet(t, "http://"+h1.Addr()+"/metrics")
	_, b2 := httpGet(t, "http://"+h2.Addr()+"/metrics")
	if !strings.Contains(string(b1), "bdhtm_serve_reqs 1\n") {
		t.Fatalf("first endpoint not serving its counters:\n%s", b1)
	}
	if !strings.Contains(string(b2), "bdhtm_serve_reqs 2\n") {
		t.Fatalf("second endpoint not serving its counters:\n%s", b2)
	}
}

// TestStartHTTPStopRestart: Close releases the address; a later
// StartHTTP (same process) serves the new recorder.
func TestStartHTTPStopRestart(t *testing.T) {
	r1 := New()
	h, err := StartHTTP("127.0.0.1:0", r1, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := h.Addr()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("endpoint still serving after Close")
	}

	r2 := New()
	r2.EndOp(OpLookup, 2, r2.Now())
	h2, err := StartHTTP(addr, r2, nil) // exact same address must be free again
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer h2.Close()
	code, body := httpGet(t, "http://"+h2.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(string(body), "\nbdhtm_op_latency_ns_count{op=\"lookup\"} 1\n") {
		t.Fatalf("/metrics still bound to the old recorder:\n%s", body)
	}
}
