// Package obs is the repository's telemetry layer for what no layer's
// own Stats owns: latency distributions and request spans. Counters and
// gauges are not declared here — each lives once, in the Stats of the
// layer that owns it (htm.Stats, nvm.Stats, epoch.Stats, bdserve's
// STATS snapshot) — and the exposition renders them from there.
//
// Components:
//
//   - Hist: log-scale latency histograms, per op type (insert / remove /
//     lookup), per HTM attempt outcome (commit vs. each abort cause),
//     per epoch-advance phase, and per service latency (hist.go).
//   - Span: follows one sampled request through the service stack; the
//     one event stream, exported as Chrome trace_event JSON and as
//     JSONL (span.go).
//   - WriteOpenMetrics / StartHTTP: the OpenMetrics exposition, served
//     with pprof by an optional HTTP endpoint (prom.go, http.go).
//
// Who records what: htm records attempts and epoch records advance
// phases; the harness and bdserve time structure operations at their
// session boundary (kv.Timed); bdserve also records service latencies
// and spans. The structures themselves carry none.
//
// Overhead discipline: a nil *Recorder is a valid, fully disabled
// recorder — every method is nil-safe, and instrumented call sites guard
// with a single pointer test (`if obs != nil`), so the disabled cost is
// one predictable branch. When enabled, the hot paths touch only sharded
// atomics.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// NumShards is the number of independent lanes every histogram is
// striped across. Callers pick a lane with any cheap per-thread-ish value
// (worker ID, key, timestamp); correctness never depends on the choice,
// only contention does.
const (
	NumShards = 32
	shardMask = NumShards - 1
)

// OpKind classifies a structure-level operation.
type OpKind uint8

const (
	OpInsert OpKind = iota
	OpRemove
	OpLookup

	NumOps
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpRemove:
		return "remove"
	case OpLookup:
		return "lookup"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Outcome classifies one HTM attempt. The values mirror htm.AbortCause
// one-to-one (checked by a static assertion in package htm, which cannot
// be imported here without a cycle).
type Outcome uint8

const (
	OutCommit Outcome = iota
	OutConflict
	OutCapacity
	OutExplicit
	OutSpurious
	OutMemType
	OutPersistOp

	NumOutcomes
)

func (o Outcome) String() string {
	switch o {
	case OutCommit:
		return "commit"
	case OutConflict:
		return "conflict"
	case OutCapacity:
		return "capacity"
	case OutExplicit:
		return "explicit"
	case OutSpurious:
		return "spurious"
	case OutMemType:
		return "memtype"
	case OutPersistOp:
		return "persist-op"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// EpochPhase names one stage of an epoch advance (epoch.AdvanceOnce):
// the announce→drain→flush→bump timeline whose stalls the paper's Fig. 7
// attributes to epoch length and write-back volume.
type EpochPhase uint8

const (
	// PhaseQuiesce is the announce→drain stall: waiting for in-flight
	// operations of the closing epoch to complete.
	PhaseQuiesce EpochPhase = iota
	// PhaseFlush is the background write-back of every block tracked in
	// the closing epoch.
	PhaseFlush
	// PhaseRoot is the durable bump of the persisted-epoch root.
	PhaseRoot
	// PhaseReclaim is the deferred reclamation of retired blocks.
	PhaseReclaim

	NumEpochPhases
)

func (p EpochPhase) String() string {
	switch p {
	case PhaseQuiesce:
		return "quiesce"
	case PhaseFlush:
		return "flush"
	case PhaseRoot:
		return "root"
	case PhaseReclaim:
		return "reclaim"
	default:
		return fmt.Sprintf("EpochPhase(%d)", uint8(p))
	}
}

// SvcHist names one service-level latency histogram: the ack-latency and
// durability-lag distributions behind the server's SLO reporting. The
// enum order is part of the exported metric set; append only.
type SvcHist uint8

const (
	// SvcAppliedAckNS: request decode → applied-ack write.
	SvcAppliedAckNS SvcHist = iota
	// SvcDurableAckNS: request decode → durable-ack write.
	SvcDurableAckNS
	// SvcAckLagNS: HTM commit → durable-ack write, the per-request
	// buffered-durability window in wall time.
	SvcAckLagNS
	// SvcAckLagEpochs: watermark − commit epoch at the durable ack (a
	// histogram over small integers, not nanoseconds).
	SvcAckLagEpochs

	NumSvcHists
)

func (h SvcHist) String() string {
	switch h {
	case SvcAppliedAckNS:
		return "applied-ack-ns"
	case SvcDurableAckNS:
		return "durable-ack-ns"
	case SvcAckLagNS:
		return "ack-lag-ns"
	case SvcAckLagEpochs:
		return "ack-lag-epochs"
	default:
		return fmt.Sprintf("SvcHist(%d)", uint8(h))
	}
}

// Recorder is the telemetry hub one benchmark run (or one test) attaches
// to the substrate and the harness. A nil *Recorder is valid and records
// nothing; all methods are nil-safe.
type Recorder struct {
	now func() int64 // ns since an arbitrary epoch; monotonic

	ops      [NumOps]Hist
	attempts [NumOutcomes]Hist
	phases   [NumEpochPhases]Hist
	svc      [NumSvcHists]Hist

	spans atomic.Pointer[SpanRing]
}

// New creates an enabled recorder using the monotonic wall clock.
func New() *Recorder {
	base := time.Now()
	return &Recorder{now: func() int64 { return int64(time.Since(base)) }}
}

// NewWithClock creates a recorder driven by an arbitrary clock, for
// deterministic tests. The clock must be monotonic (never decrease).
func NewWithClock(now func() int64) *Recorder {
	return &Recorder{now: now}
}

// Now returns the recorder's clock reading, or 0 for a nil recorder.
// Instrumented sites pass it back to EndOp/Attempt/Phase as the start
// timestamp.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// EndOp records the completion of one structure-level operation that
// began at start (a prior Now reading) into the op-kind latency
// histogram. shard is any cheap spreading value (key, worker ID).
func (r *Recorder) EndOp(k OpKind, shard uint64, start int64) {
	if r == nil {
		return
	}
	r.ops[k].Record(shard, r.now()-start)
}

// Attempt records one HTM attempt that began at start, classified by
// outcome.
func (r *Recorder) Attempt(o Outcome, shard uint64, start int64) {
	if r == nil {
		return
	}
	r.attempts[o].Record(shard, r.now()-start)
}

// Phase records one epoch-advance phase that began at start, spread
// across lanes by the epoch being closed. It returns the end timestamp
// so the caller can chain phases without re-reading the clock.
func (r *Recorder) Phase(p EpochPhase, epoch uint64, start int64) int64 {
	if r == nil {
		return 0
	}
	end := r.now()
	r.phases[p].Record(epoch, end-start)
	return end
}

// OpHist returns a snapshot of one op-kind latency histogram.
func (r *Recorder) OpHist(k OpKind) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.ops[k].Snapshot()
}

// AttemptHist returns a snapshot of one attempt-outcome latency
// histogram.
func (r *Recorder) AttemptHist(o Outcome) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.attempts[o].Snapshot()
}

// PhaseHist returns a snapshot of one epoch-phase duration histogram.
func (r *Recorder) PhaseHist(p EpochPhase) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.phases[p].Snapshot()
}

// SvcRecord records one service-level sample (a latency or an epoch
// count, per the SvcHist's unit) into lane shard.
func (r *Recorder) SvcRecord(h SvcHist, shard uint64, v int64) {
	if r == nil {
		return
	}
	r.svc[h].Record(shard, v)
}

// SvcSnapshot returns the merged snapshot of one service histogram.
func (r *Recorder) SvcSnapshot(h SvcHist) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.svc[h].Snapshot()
}

// EnableSpans attaches a span ring sampling one request in every to the
// recorder and returns it; SampleSpan draws from it from then on.
func (r *Recorder) EnableSpans(capacity, every int) *SpanRing {
	if r == nil {
		return nil
	}
	sr := NewSpanRing(capacity, every)
	r.spans.Store(sr)
	return sr
}

// SpanRing returns the active span ring, or nil.
func (r *Recorder) SpanRing() *SpanRing {
	if r == nil {
		return nil
	}
	return r.spans.Load()
}

// SampleSpan starts a span for a request if spans are enabled and the
// request ID is sampled; otherwise it returns nil, for the cost of one
// atomic load. The span arrives with SpanDecode stamped at the current
// clock reading.
func (r *Recorder) SampleSpan(reqID, conn uint64, op uint8) *Span {
	if r == nil {
		return nil
	}
	sr := r.spans.Load()
	if sr == nil || !sr.Sampled(reqID) {
		// The sampling decision comes before the clock read: unsampled
		// requests (the overwhelming majority at production rates) must
		// not pay for a timestamp they will never use.
		return nil
	}
	return sr.sample(reqID, conn, op, r.now())
}
