package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

var clock0 = time.Now()

// now is nanoseconds on the process's monotonic clock.
func now() int64 { return int64(time.Since(clock0)) }

// traceEvery: one op in this many is timed (both passes) and, in the traced
// pass, recorded as a span tree.
const traceEvery = 16

// span is one timed interval at a layer boundary. Spans of one op share
// the root's ID as Parent; a root has Parent 0.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer hands out span IDs. Each issuing goroutine appends to its own
// slice, so recording takes no lock; the slices are joined when written.
type tracer struct {
	ids atomic.Uint64
}

// maxSpansPerIssuer caps the trace file; spans past it are counted, not kept.
const maxSpansPerIssuer = 1 << 16

func (t *tracer) add(dst *[]span, parent uint64, name string, start, end int64) uint64 {
	id := t.ids.Add(1)
	if len(*dst) < maxSpansPerIssuer {
		*dst = append(*dst, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	}
	return id
}

// writeSpans stores the traced pass's spans as JSON lines under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// stackUp prints the ROADMAP's layer budget from a traced run's metrics: a
// PUT measured at successively wider layer boundaries — each boundary's
// cost, what it adds over the boundary below, and its share of the served
// PUT (or of the structure op on an embedded workload, which has no wire
// above it). The rows are independent probes, so a delta can be negative.
func stackUp(w io.Writer, m map[string]float64, durableNS float64) {
	rows := []struct {
		name string
		ns   float64
	}{
		{"nvm.store_ns", m["nvm.store_ns"]},
		{"htm.attempt_r8w8_ns", m["htm.attempt_r8w8_ns"]},
		{"epoch.tracked_op_ns", m["epoch.tracked_op_ns"]},
		{"bdhash.insert_ns", m["bdhash.insert_ns"]},
		{"bdserve.rtt_put_applied_us", 1e3 * m["bdserve.rtt_put_applied_us"]},
		{"issue -> durable", durableNS},
	}
	whole, name := m["bdhash.insert_ns"], "the structure PUT"
	if rtt := 1e3 * m["bdserve.rtt_put_applied_us"]; rtt > 0 {
		whole, name = rtt, "the served PUT"
	}
	fmt.Fprintf(w, "\nstack-up of one PUT (%% of %s)\n", name)
	fmt.Fprintf(w, "  %-28s %12s %12s %8s\n", "boundary", "ns", "delta ns", "%")
	prev := 0.0
	for _, r := range rows {
		if r.ns == 0 {
			continue // a boundary this surface does not have
		}
		pct := 0.0
		if whole > 0 {
			pct = 100 * r.ns / whole
		}
		fmt.Fprintf(w, "  %-28s %12.1f %12.1f %7.1f%%\n", r.name, r.ns, r.ns-prev, pct)
		prev = r.ns
	}
}
