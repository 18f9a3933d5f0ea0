package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// HTTPServer is a running observability endpoint; Close shuts down the
// listener and its serving goroutine, after which StartHTTP may be
// called again (on the same or another address).
type HTTPServer struct {
	addr string
	srv  *http.Server
	ln   net.Listener
}

// Addr returns the bound address (useful with ":0").
func (h *HTTPServer) Addr() string { return h.addr }

// Close shuts down the listener; in-flight requests are cut off.
func (h *HTTPServer) Close() error { return h.srv.Close() }

// StartHTTP serves live observability over HTTP on addr: /obs (JSON
// snapshot of r, plus the counters under "counters"), /metrics (the
// OpenMetrics exposition of r and the counters) and /debug/pprof.
// counters, if non-nil, is called on every request for the caller's
// current flat counter struct (see WriteOpenMetrics). Each call builds
// its own ServeMux and server, so multiple endpoints (or stop/restart
// cycles) coexist; the returned handle's Close tears the endpoint down.
// Intended for benchmark runs and service daemons, not the open internet.
func StartHTTP(addr string, r *Recorder, counters func() any) (*HTTPServer, error) {
	if counters == nil {
		counters = func() any { return nil }
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Snapshot
			Counters any `json:"counters,omitempty"`
		}{r.Snapshot(), counters()})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = r.WriteOpenMetrics(w, counters())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &HTTPServer{addr: ln.Addr().String(), srv: &http.Server{Handler: mux}, ln: ln}
	go func() { _ = h.srv.Serve(ln) }()
	return h, nil
}
