package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
)

// EventKind names one traced event.
type EventKind uint8

const (
	EvOp         EventKind = iota // structure op; Arg1 = OpKind
	EvAttempt                     // HTM attempt; Arg1 = Outcome
	EvFlush                       // explicit line flush; Arg1 = addr
	EvFence                       // store fence
	EvWriteBack                   // eviction write-back; Arg1 = addr
	EvEpochPhase                  // advance phase; Arg1 = EpochPhase, Arg2 = epoch
	EvAdvance                     // epoch transition; Arg1 = persisted epoch
	EvAlloc                       // palloc allocation; Arg1 = addr, Arg2 = class
	EvFree                        // palloc free; Arg1 = addr
	EvCrash                       // simulated power failure; Arg1 = crash count
	EvRecover                     // recovery pass; Arg1 = recovery boundary epoch
	EvSpanPhase                   // request span phase; Arg1 = SpanPhase, Arg2 = request ID

	NumEventKinds
)

func (k EventKind) String() string {
	switch k {
	case EvOp:
		return "op"
	case EvAttempt:
		return "attempt"
	case EvFlush:
		return "flush"
	case EvFence:
		return "fence"
	case EvWriteBack:
		return "writeback"
	case EvEpochPhase:
		return "epoch-phase"
	case EvAdvance:
		return "advance"
	case EvAlloc:
		return "alloc"
	case EvFree:
		return "free"
	case EvCrash:
		return "crash"
	case EvRecover:
		return "recover"
	case EvSpanPhase:
		return "span-phase"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// name returns the human label an exporter uses for the event, refining
// op/attempt/phase events with their sub-kind.
func (e Event) name() string {
	switch e.Kind {
	case EvOp:
		return "op." + OpKind(e.Arg1).String()
	case EvAttempt:
		return "attempt." + Outcome(e.Arg1).String()
	case EvEpochPhase:
		return "epoch." + EpochPhase(e.Arg1).String()
	case EvSpanPhase:
		return "span." + SpanPhase(e.Arg1).String()
	default:
		return e.Kind.String()
	}
}

// Event is one traced occurrence. TS/Dur are recorder-clock nanoseconds;
// Dur is 0 for instant events.
type Event struct {
	TS    int64
	Dur   int64
	Kind  EventKind
	Shard uint16
	Arg1  uint64
	Arg2  uint64
}

// Tracer is a sharded ring buffer of Events. Each shard keeps the most
// recent events emitted to it under a tiny per-shard mutex, so tracing
// never becomes a global serialization point and never grows without
// bound: once a shard's ring is full, its oldest events are overwritten.
type Tracer struct {
	shards [NumShards]traceShard
}

type traceShard struct {
	mu  sync.Mutex
	buf []Event
	seq uint64 // events ever emitted to this shard
}

// newTracer sizes the rings for roughly capacity events in total.
func newTracer(capacity int) *Tracer {
	per := (capacity + NumShards - 1) / NumShards
	if per < 16 {
		per = 16
	}
	t := &Tracer{}
	for i := range t.shards {
		t.shards[i].buf = make([]Event, 0, per)
	}
	return t
}

func (t *Tracer) emit(e Event) {
	s := &t.shards[e.Shard&shardMask]
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, e)
	} else {
		s.buf[s.seq%uint64(cap(s.buf))] = e
	}
	s.seq++
	s.mu.Unlock()
}

// Counts returns the number of retained and dropped (overwritten)
// events.
func (t *Tracer) Counts() (retained, dropped int64) {
	if t == nil {
		return 0, 0
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		retained += int64(len(s.buf))
		dropped += int64(s.seq) - int64(len(s.buf))
		s.mu.Unlock()
	}
	return retained, dropped
}

// Events returns every retained event in timestamp order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		out = append(out, s.buf...)
		s.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// WriteChromeTrace renders events (obtained from Events, or any sorted
// slice) in Chrome's trace_event JSON array format, loadable in
// chrome://tracing and Perfetto. Durations become complete ("X") events;
// instant events become "i". Timestamps are microseconds with nanosecond
// fractions, emitted in non-decreasing order.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, e := range events {
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		ts := float64(e.TS) / 1e3
		if e.Dur > 0 {
			fmt.Fprintf(bw, `  {"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"a1":%d,"a2":%d}}%s`+"\n",
				e.name(), ts, float64(e.Dur)/1e3, e.Shard, e.Arg1, e.Arg2, sep)
		} else {
			fmt.Fprintf(bw, `  {"name":%q,"ph":"i","s":"t","ts":%.3f,"pid":1,"tid":%d,"args":{"a1":%d,"a2":%d}}%s`+"\n",
				e.name(), ts, e.Shard, e.Arg1, e.Arg2, sep)
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
