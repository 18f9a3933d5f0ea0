package obs

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// OpenMetrics text exposition of a Recorder plus a caller's counters,
// servable at /metrics and scrapable by Prometheus. Families:
//
//	bdhtm_<snake_case(field)>                one gauge per counters field
//	bdhtm_op_latency_ns{op="..."}            histogram per OpKind
//	bdhtm_attempt_latency_ns{outcome="..."}  histogram per Outcome
//	bdhtm_epoch_phase_ns{phase="..."}        histogram per EpochPhase
//	bdhtm_svc_<name>                         histogram per SvcHist
//
// Dashes in enum String() names become underscores; the names above are
// a published contract (DESIGN.md §7) — renames are breaking changes.

// promName converts an enum label ("persist-op") to a metric-name-safe
// token ("persist_op").
func promName(s string) string {
	return strings.ReplaceAll(s, "-", "_")
}

// snakeCase converts a Go field name to a metric-name token:
// "MaxAckLagEpochs" → "max_ack_lag_epochs", "OldestUnackedNS" →
// "oldest_unacked_ns".
func snakeCase(s string) string {
	rs := []rune(s)
	var b strings.Builder
	for i, c := range rs {
		if i > 0 && unicode.IsUpper(c) &&
			(!unicode.IsUpper(rs[i-1]) || i+1 < len(rs) && unicode.IsLower(rs[i+1])) {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(c))
	}
	return b.String()
}

// WriteOpenMetrics renders each field of counters (a flat struct of
// integer fields, or a pointer to one; nil renders none) as a gauge named
// bdhtm_<snake_case(field)>, then the recorder's histograms, terminated
// by the required "# EOF" line. The struct's fields are the declaration:
// there is no second name table. A field of any other kind is an error.
// A nil recorder renders no histograms.
func (r *Recorder) WriteOpenMetrics(w io.Writer, counters any) error {
	bw := bufio.NewWriter(w)
	if counters != nil {
		v := reflect.Indirect(reflect.ValueOf(counters))
		if v.Kind() != reflect.Struct {
			return fmt.Errorf("obs: counters is a %s, not a struct", v.Kind())
		}
		for i := 0; i < v.NumField(); i++ {
			var n string
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				n = strconv.FormatInt(f.Int(), 10)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				n = strconv.FormatUint(f.Uint(), 10)
			default:
				return fmt.Errorf("obs: counters field %s is a %s, not an integer", v.Type().Field(i).Name, f.Kind())
			}
			name := "bdhtm_" + snakeCase(v.Type().Field(i).Name)
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", name, name, n)
		}
	}
	if r != nil {
		fmt.Fprintf(bw, "# TYPE bdhtm_op_latency_ns histogram\n")
		for k := OpKind(0); k < NumOps; k++ {
			writePromHist(bw, "bdhtm_op_latency_ns", fmt.Sprintf("op=%q", promName(k.String())), r.ops[k].Snapshot())
		}
		fmt.Fprintf(bw, "# TYPE bdhtm_attempt_latency_ns histogram\n")
		for o := Outcome(0); o < NumOutcomes; o++ {
			writePromHist(bw, "bdhtm_attempt_latency_ns", fmt.Sprintf("outcome=%q", promName(o.String())), r.attempts[o].Snapshot())
		}
		fmt.Fprintf(bw, "# TYPE bdhtm_epoch_phase_ns histogram\n")
		for p := EpochPhase(0); p < NumEpochPhases; p++ {
			writePromHist(bw, "bdhtm_epoch_phase_ns", fmt.Sprintf("phase=%q", promName(p.String())), r.phases[p].Snapshot())
		}
		for v := SvcHist(0); v < NumSvcHists; v++ {
			name := "bdhtm_svc_" + promName(v.String())
			fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
			writePromHist(bw, name, "", r.svc[v].Snapshot())
		}
	}
	if _, err := bw.WriteString("# EOF\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// writePromHist emits one histogram series (cumulative le buckets, +Inf,
// _sum, _count) for a label set.
func writePromHist(bw *bufio.Writer, name, labels string, h HistSnapshot) {
	sep := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		default:
			return "{" + labels + "," + extra + "}"
		}
	}
	var cum int64
	for b, c := range h.Buckets {
		cum += c
		if c == 0 {
			continue // cumulative value unchanged; keep the exposition small
		}
		fmt.Fprintf(bw, "%s_bucket%s %d\n", name, sep(fmt.Sprintf(`le="%d"`, BucketUpper(b))), cum)
	}
	fmt.Fprintf(bw, "%s_bucket%s %d\n", name, sep(`le="+Inf"`), h.Count)
	fmt.Fprintf(bw, "%s_sum%s %d\n", name, sep(""), h.SumNS)
	fmt.Fprintf(bw, "%s_count%s %d\n", name, sep(""), h.Count)
}

// LintOpenMetrics validates an OpenMetrics text exposition well enough
// to gate CI: every sample belongs to a declared family of a known type,
// counter samples use the _total suffix, histogram samples use the
// _bucket/_sum/_count suffixes with parsable le labels and cumulative
// non-decreasing bucket values ending in a +Inf bucket equal to _count,
// values parse as numbers, and the exposition ends with "# EOF".
func LintOpenMetrics(data []byte) error {
	lines := strings.Split(string(data), "\n")
	// Tolerate one trailing empty line after # EOF.
	for len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 || lines[len(lines)-1] != "# EOF" {
		return fmt.Errorf("openmetrics: missing terminal # EOF")
	}
	types := map[string]string{}
	type histState struct {
		prevLe  float64
		prevVal float64
		infVal  float64
		seen    bool // at least one bucket in this label set
		hasInf  bool
		key     string // current label set, to reset cumulativity checks
	}
	hists := map[string]*histState{}
	for ln, line := range lines[:len(lines)-1] {
		if line == "" {
			return fmt.Errorf("openmetrics line %d: empty line before # EOF", ln+1)
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) >= 4 && f[1] == "TYPE" {
				name, typ := f[2], f[3]
				if !validMetricName(name) {
					return fmt.Errorf("openmetrics line %d: bad family name %q", ln+1, name)
				}
				if _, dup := types[name]; dup {
					return fmt.Errorf("openmetrics line %d: duplicate TYPE for %q", ln+1, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "unknown", "info", "stateset":
				default:
					return fmt.Errorf("openmetrics line %d: unknown type %q", ln+1, typ)
				}
				types[name] = typ
			}
			continue
		}
		name, labels, valStr, err := splitSample(line)
		if err != nil {
			return fmt.Errorf("openmetrics line %d: %v", ln+1, err)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("openmetrics line %d: bad value %q", ln+1, valStr)
		}
		family, suffix := familyOf(name, types)
		if family == "" {
			return fmt.Errorf("openmetrics line %d: sample %q has no TYPE declaration", ln+1, name)
		}
		switch types[family] {
		case "counter":
			if suffix != "_total" && suffix != "_created" {
				return fmt.Errorf("openmetrics line %d: counter sample %q must end in _total", ln+1, name)
			}
			if val < 0 {
				return fmt.Errorf("openmetrics line %d: negative counter %q", ln+1, name)
			}
		case "histogram":
			h := hists[family]
			if h == nil {
				h = &histState{}
				hists[family] = h
			}
			base := stripLabel(labels, "le")
			if base != h.key {
				*h = histState{key: base}
			}
			switch suffix {
			case "_bucket":
				leStr, ok := labelValue(labels, "le")
				if !ok {
					return fmt.Errorf("openmetrics line %d: histogram bucket %q lacks le label", ln+1, name)
				}
				le := inf
				if leStr != "+Inf" {
					if le, err = strconv.ParseFloat(leStr, 64); err != nil {
						return fmt.Errorf("openmetrics line %d: bad le %q", ln+1, leStr)
					}
				}
				if h.seen && le <= h.prevLe {
					return fmt.Errorf("openmetrics line %d: le %q not increasing", ln+1, leStr)
				}
				if val < h.prevVal {
					return fmt.Errorf("openmetrics line %d: bucket %q not cumulative (%v < %v)", ln+1, name, val, h.prevVal)
				}
				h.prevLe, h.prevVal, h.seen = le, val, true
				if leStr == "+Inf" {
					h.hasInf, h.infVal = true, val
				}
			case "_sum":
			case "_count":
				if !h.hasInf {
					return fmt.Errorf("openmetrics line %d: histogram %q has no +Inf bucket", ln+1, family)
				}
				if val != h.infVal {
					return fmt.Errorf("openmetrics line %d: histogram %q count %v != +Inf bucket %v", ln+1, family, val, h.infVal)
				}
			default:
				return fmt.Errorf("openmetrics line %d: unexpected histogram sample %q", ln+1, name)
			}
		case "gauge", "unknown":
		default:
			return fmt.Errorf("openmetrics line %d: samples for unsupported type %q", ln+1, types[family])
		}
	}
	return nil
}

var inf = func() float64 {
	v, _ := strconv.ParseFloat("+Inf", 64)
	return v
}()

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// splitSample parses `name{labels} value` or `name value`.
func splitSample(line string) (name, labels, value string, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", "", "", fmt.Errorf("unbalanced braces in %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		f := strings.SplitN(rest, " ", 2)
		if len(f) != 2 {
			return "", "", "", fmt.Errorf("sample %q has no value", line)
		}
		name, rest = f[0], strings.TrimSpace(f[1])
	}
	if !validMetricName(name) {
		return "", "", "", fmt.Errorf("bad sample name %q", name)
	}
	// Value is the first field of the remainder (a timestamp may follow).
	f := strings.Fields(rest)
	if len(f) == 0 {
		return "", "", "", fmt.Errorf("sample %q has no value", line)
	}
	return name, labels, f[0], nil
}

// familyOf resolves a sample name to its declared family: the longest
// declared name obtained by stripping a known suffix (or none).
func familyOf(name string, types map[string]string) (family, suffix string) {
	if _, ok := types[name]; ok {
		return name, ""
	}
	for _, s := range []string{"_total", "_created", "_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, s); ok {
			if _, declared := types[base]; declared {
				return base, s
			}
		}
	}
	return "", ""
}

func labelValue(labels, key string) (string, bool) {
	for _, kv := range splitLabels(labels) {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

func stripLabel(labels, key string) string {
	var kept []string
	for _, kv := range splitLabels(labels) {
		if k, _, ok := strings.Cut(kv, "="); !ok || k != key {
			kept = append(kept, kv)
		}
	}
	sort.Strings(kept)
	return strings.Join(kept, ",")
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(labels string) []string {
	if labels == "" {
		return nil
	}
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, labels[start:i])
				start = i + 1
			}
		}
	}
	return append(out, labels[start:])
}
