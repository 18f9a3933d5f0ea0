package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Request-lifecycle spans.
//
// A Span follows one client request through the service stack — decode
// off the wire, HTM attempts (with per-cause abort counts), commit (with
// the commit epoch), applied ack, epoch flush, durable ack — the
// buffered-durability latency window the paper argues about, made
// observable per request instead of only in aggregate.
//
// Spans are sampled deterministically: a request is traced iff
// splitmix64(reqID) % every == 0, so under a fixed workload seed the
// same requests are traced on every run. Sampled spans live in a
// preallocated ring (SpanRing); the hot path never allocates, and when
// the ring wraps onto a span still in flight the new sample is dropped
// and counted rather than corrupting the live one.

// SpanPhase names one stage of a request's lifecycle. The numeric values
// are part of the exported trace format (Event.Arg1); append only.
type SpanPhase uint8

const (
	// SpanDecode: the request frame was decoded off the wire.
	SpanDecode SpanPhase = iota
	// SpanExec: structure execution began; HTM attempts follow.
	SpanExec
	// SpanCommit: the operation finished executing. For writes this is
	// the HTM commit that made the op visible; Span.CommitEpoch holds
	// the epoch it committed in.
	SpanCommit
	// SpanApplied: the applied ack (or read response) was written back
	// to the client.
	SpanApplied
	// SpanFlush: the durable watermark was first observed covering the
	// op's commit epoch (the group-commit drain woke up for it).
	SpanFlush
	// SpanDurable: the durable ack was written; Span.DurableEpoch holds
	// the watermark at that point, so DurableEpoch-CommitEpoch is the
	// op's observed BDL window in epochs.
	SpanDurable

	NumSpanPhases
)

func (p SpanPhase) String() string {
	switch p {
	case SpanDecode:
		return "decode"
	case SpanExec:
		return "exec"
	case SpanCommit:
		return "commit"
	case SpanApplied:
		return "applied"
	case SpanFlush:
		return "flush"
	case SpanDurable:
		return "durable"
	default:
		return fmt.Sprintf("SpanPhase(%d)", uint8(p))
	}
}

// Span slot states. A slot cycles free → active → done → (reused) active.
const (
	spanFree uint32 = iota
	spanActive
	spanDone
)

// Span is one sampled request's lifecycle record. The exported fields
// are written by the connection's reader/writer goroutines at the
// matching pipeline stages; the channel handoff between them orders the
// writes, so no per-field synchronization is needed. All methods are
// nil-safe: unsampled requests carry a nil *Span through the pipeline
// for the cost of one pointer test per stage.
type Span struct {
	// state points at the ring's slot-state word (kept outside the
	// struct so Span values stay copyable); nil for hand-built spans.
	state *atomic.Uint32

	ReqID uint64 // client request ID (sampling key)
	Conn  uint64 // connection lane
	Op    uint8  // wire frame type of the request
	Write bool   // op goes through the durable-ack path
	OK    bool   // op outcome reported to the client

	CommitEpoch  uint64 // epoch the write committed in (writes only)
	DurableEpoch uint64 // watermark at the durable ack (writes only)

	// Phase[p] is the nanosecond timestamp of phase p, 0 if unstamped.
	Phase [NumSpanPhases]int64

	// Outcomes[o] counts HTM attempts by outcome; Outcomes[OutCommit]
	// is the commit count, the rest are per-cause aborts (conflict,
	// capacity, injected spurious/memtype, ...).
	Outcomes [NumOutcomes]uint32
}

// Stamp records the timestamp of one phase. ts must be a positive clock
// reading; 0 means "unstamped".
func (sp *Span) Stamp(p SpanPhase, ts int64) {
	if sp == nil {
		return
	}
	sp.Phase[p] = ts
}

// RecordAttempt counts one HTM attempt by outcome.
func (sp *Span) RecordAttempt(o Outcome) {
	if sp == nil {
		return
	}
	sp.Outcomes[o]++
}

// Attempts is the total number of HTM attempts recorded on the span.
func (sp *Span) Attempts() uint32 {
	var n uint32
	for _, c := range sp.Outcomes {
		n += c
	}
	return n
}

// Finish marks the span complete and publishes it to SpanRing.Spans.
func (sp *Span) Finish() {
	if sp == nil || sp.state == nil {
		return
	}
	sp.state.Store(spanDone)
}

// SpanRing is a fixed-capacity pool of spans. Sampling claims a slot by
// advancing a cursor and CASing the slot's state; a slot whose previous
// occupant is still active is skipped (the sample is dropped), and a
// done slot is recycled — the ring keeps the most recent completed
// spans up to its capacity.
type SpanRing struct {
	every   uint64
	slots   []Span
	states  []atomic.Uint32 // slot states, parallel to slots
	cursor  atomic.Uint64
	sampled atomic.Int64
	dropped atomic.Int64
}

// NewSpanRing creates a ring of capacity preallocated spans sampling one
// request in every (every <= 1 samples all requests).
func NewSpanRing(capacity, every int) *SpanRing {
	if capacity < 1 {
		capacity = 1
	}
	if every < 1 {
		every = 1
	}
	return &SpanRing{
		every:  uint64(every),
		slots:  make([]Span, capacity),
		states: make([]atomic.Uint32, capacity),
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-mixed hash so sequential request IDs sample uniformly.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sampled reports the deterministic sampling decision for a request ID,
// independent of ring state — the trace of a fixed workload is the same
// set of request IDs on every run.
func (sr *SpanRing) Sampled(reqID uint64) bool {
	return sr.every <= 1 || splitmix64(reqID)%sr.every == 0
}

// sample claims a slot for a request, stamping SpanDecode with now.
// Returns nil if the request is not sampled or no slot is free.
func (sr *SpanRing) sample(reqID, conn uint64, op uint8, now int64) *Span {
	if !sr.Sampled(reqID) {
		return nil
	}
	idx := (sr.cursor.Add(1) - 1) % uint64(len(sr.slots))
	st := &sr.states[idx]
	s := st.Load()
	if s == spanActive || !st.CompareAndSwap(s, spanActive) {
		sr.dropped.Add(1)
		return nil
	}
	sp := &sr.slots[idx]
	*sp = Span{state: st, ReqID: reqID, Conn: conn, Op: op}
	sp.Phase[SpanDecode] = now
	sr.sampled.Add(1)
	return sp
}

// Spans returns a copy of every completed span, ordered by decode time.
func (sr *SpanRing) Spans() []Span {
	if sr == nil {
		return nil
	}
	out := make([]Span, 0, len(sr.slots))
	for i := range sr.slots {
		if sr.states[i].Load() == spanDone {
			out = append(out, sr.slots[i])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Phase[SpanDecode] < out[j].Phase[SpanDecode]
	})
	return out
}

// Counts reports how many samples claimed a slot, how many were dropped
// on ring wrap, and how many slots are still active (sampled requests
// whose lifecycle has not finished — at quiescence this must be zero, or
// the trace has orphan spans).
func (sr *SpanRing) Counts() (sampled, dropped, active int64) {
	if sr == nil {
		return 0, 0, 0
	}
	for i := range sr.states {
		if sr.states[i].Load() == spanActive {
			active++
		}
	}
	return sr.sampled.Load(), sr.dropped.Load(), active
}

// SpanCheck configures CheckSpans.
type SpanCheck struct {
	// MaxAckLagEpochs bounds DurableEpoch-CommitEpoch per write span;
	// negative disables the bound. Under the BDL two-epoch window a
	// promptly drained ack lags at most 2.
	MaxAckLagEpochs int64
}

// CheckSpans validates the structural invariants of a set of completed
// spans: phase timestamps are stamped and monotone, every durable stamp
// is preceded by an applied stamp, write spans carry a commit epoch, a
// durable epoch at or past it (within the configured lag bound), and at
// least one HTM attempt; read spans never enter the durability phases.
// It returns the first violation found.
func CheckSpans(spans []Span, c SpanCheck) error {
	for i := range spans {
		if err := checkSpan(&spans[i], c); err != nil {
			return fmt.Errorf("span %d (req %#x conn %d): %w", i, spans[i].ReqID, spans[i].Conn, err)
		}
	}
	return nil
}

func checkSpan(sp *Span, c SpanCheck) error {
	last := NumSpanPhases - 1
	if !sp.Write {
		last = SpanApplied
		for p := SpanFlush; p < NumSpanPhases; p++ {
			if sp.Phase[p] != 0 {
				return fmt.Errorf("read span stamped durability phase %s", p)
			}
		}
	}
	prev := int64(0)
	for p := SpanDecode; p <= last; p++ {
		ts := sp.Phase[p]
		if ts <= 0 {
			return fmt.Errorf("phase %s unstamped", p)
		}
		if ts < prev {
			return fmt.Errorf("phase %s ts %d precedes %s ts %d", p, ts, p-1, prev)
		}
		prev = ts
	}
	if !sp.Write {
		return nil
	}
	if sp.Phase[SpanDurable] < sp.Phase[SpanApplied] {
		return fmt.Errorf("durable ts %d precedes applied ts %d", sp.Phase[SpanDurable], sp.Phase[SpanApplied])
	}
	if sp.Attempts() == 0 {
		return fmt.Errorf("write span recorded no HTM attempts")
	}
	if sp.CommitEpoch == 0 {
		return fmt.Errorf("write span has no commit epoch")
	}
	if sp.DurableEpoch < sp.CommitEpoch {
		return fmt.Errorf("durable epoch %d < commit epoch %d", sp.DurableEpoch, sp.CommitEpoch)
	}
	if lag := int64(sp.DurableEpoch - sp.CommitEpoch); c.MaxAckLagEpochs >= 0 && lag > c.MaxAckLagEpochs {
		return fmt.Errorf("ack lag %d epochs exceeds bound %d", lag, c.MaxAckLagEpochs)
	}
	return nil
}

// SpanEvents converts completed spans into trace events, one EvSpanPhase
// per stamped phase with Dur running to the next stamped phase, so the
// Chrome-trace exporter renders per-request lifecycle lanes
// next to the substrate's own events. Shard is the connection lane and
// Arg2 the request ID, grouping one request's phases together.
func SpanEvents(spans []Span) []Event {
	var evs []Event
	for i := range spans {
		sp := &spans[i]
		for p := SpanPhase(0); p < NumSpanPhases; p++ {
			ts := sp.Phase[p]
			if ts == 0 {
				continue
			}
			var dur int64
			for q := p + 1; q < NumSpanPhases; q++ {
				if sp.Phase[q] != 0 {
					dur = sp.Phase[q] - ts
					break
				}
			}
			evs = append(evs, Event{
				TS:    ts,
				Dur:   dur,
				Kind:  EvSpanPhase,
				Shard: uint16(sp.Conn & shardMask),
				Arg1:  uint64(p),
				Arg2:  sp.ReqID,
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return evs
}

// WriteSpansJSONL writes one JSON object per completed span: the full
// request record (phases, epochs, per-cause attempt outcomes) at higher
// fidelity than the flattened trace events.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	for i := range spans {
		sp := &spans[i]
		if _, err := fmt.Fprintf(w,
			`{"req_id":%d,"conn":%d,"op":%d,"write":%t,"ok":%t,"commit_epoch":%d,"durable_epoch":%d,"attempts":%d`,
			sp.ReqID, sp.Conn, sp.Op, sp.Write, sp.OK, sp.CommitEpoch, sp.DurableEpoch, sp.Attempts()); err != nil {
			return err
		}
		if _, err := io.WriteString(w, `,"outcomes":{`); err != nil {
			return err
		}
		first := true
		for o := Outcome(0); o < NumOutcomes; o++ {
			if sp.Outcomes[o] == 0 {
				continue
			}
			if !first {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			first = false
			if _, err := fmt.Fprintf(w, "%q:%d", o.String(), sp.Outcomes[o]); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, `},"phase_ns":{`); err != nil {
			return err
		}
		first = true
		for p := SpanPhase(0); p < NumSpanPhases; p++ {
			if sp.Phase[p] == 0 {
				continue
			}
			if !first {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			first = false
			if _, err := fmt.Fprintf(w, "%q:%d", p.String(), sp.Phase[p]); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}}\n"); err != nil {
			return err
		}
	}
	return nil
}
