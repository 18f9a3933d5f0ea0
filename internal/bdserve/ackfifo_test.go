package bdserve

import (
	"runtime"
	"testing"
)

// A connection's pending-ack queue reuses its array in steady state: once
// it has grown to its backlog, a long stream of pushes and pops allocates
// nothing, whether a standing backlog (writes waiting out their epoch)
// keeps it from ever emptying or whole windows drain at once; and entries
// come out in the order they went in. Each stream runs as one measured
// call, so growth that is merely amortised still counts.
//
// testing.AllocsPerRun counts every goroutine's mallocs, and a garbage
// collection still marking when the measured call starts can allocate on
// its own: a background mark worker that blocks at mark termination
// allocates a sudog when its P's cache is empty. So each measurement
// starts right after a completed collection; the measured calls allocate
// nothing, so none starts during them.
func TestAckFIFOSteadyStateDoesNotAllocate(t *testing.T) {
	var f ackFIFO
	var in, out uint64
	push := func(n int) {
		for range n {
			in++
			f.push(pendingAck{id: in})
		}
	}
	pop := func(n int) {
		for range n {
			if got := f.front().id; got != out+1 {
				t.Fatalf("popped id %d, want %d", got, out+1)
			}
			out++
			f.pop()
		}
	}
	push(40)
	runtime.GC()
	if n := testing.AllocsPerRun(1, func() {
		for range 10000 {
			push(3)
			pop(3)
		}
	}); n != 0 {
		t.Errorf("%v allocs for 30 000 pushes and pops behind a standing backlog, want 0", n)
	}
	pop(f.len())
	if f.len() != 0 || in != out {
		t.Fatalf("len %d after draining, pushed %d, popped %d", f.len(), in, out)
	}
	runtime.GC()
	if n := testing.AllocsPerRun(1, func() {
		for range 1000 {
			push(32)
			pop(32)
		}
	}); n != 0 {
		t.Errorf("%v allocs for 1 000 drained 32-entry windows, want 0", n)
	}
}
