package crashfuzz

import (
	"strings"
	"sync"
	"sync/atomic"

	"bdhtm/internal/nvm"
)

// Digest fingerprints what one single-writer round did to the simulated
// media: the persist events it fired, recovery's included, and the view
// each crash left. A change meant to keep behaviour must leave every
// round's digest as it was.
type Digest struct {
	Events   int    // persist events fired
	Ordered  uint64 // hash of the events in order
	Multiset uint64 // hash of the events in any order
	View     uint64 // hash of the view after each crash, before recovery
	Verdict  string // "ok", or the failure's first line
}

// PersistEvent is one persist event as a digest sees it.
type PersistEvent struct {
	Point nvm.PersistPoint
	Addr  nvm.Addr
	Line  [nvm.LineWords]uint64 // the view of the line holding Addr as the event fired
}

func (e PersistEvent) hash() uint64 {
	x := Mix(uint64(e.Point), uint64(e.Addr))
	for _, w := range e.Line {
		x = Mix(x, w)
	}
	return x
}

// DigestRound runs round p as RunRound does, with one writer, and digests
// it. each, if not nil, is called with every persist event in order.
func DigestRound(p RoundParams, each func(PersistEvent)) Digest {
	p.Workers = 1
	dig := &digester{each: each}
	dig.d.Verdict = "ok"
	if f := runRound(p, dig); f != nil {
		dig.d.Verdict, _, _ = strings.Cut("FAIL "+f.Msg, "\n")
	}
	return dig.d
}

// digester accumulates a Digest. Recovery's scan workers fire events
// concurrently, so it takes a lock.
type digester struct {
	mu   sync.Mutex
	d    Digest
	each func(PersistEvent)
}

// event digests persist event pt at a, which is about to take effect.
func (g *digester) event(h *nvm.Heap, pt nvm.PersistPoint, a nvm.Addr) {
	e := PersistEvent{Point: pt, Addr: a}
	line := a - a%nvm.LineWords
	for i := range e.Line {
		e.Line[i] = atomic.LoadUint64(h.WordPtr(line + nvm.Addr(i)))
	}
	x := e.hash()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.d.Events++
	g.d.Ordered = Mix(g.d.Ordered, x)
	g.d.Multiset += x
	if g.each != nil {
		g.each(e)
	}
}

// crashed digests the view a crash left.
func (g *digester) crashed(h *nvm.Heap) {
	v := g.d.View
	for a := nvm.Addr(0); a < nvm.Addr(h.Words()); a++ {
		v = Mix(v, atomic.LoadUint64(h.WordPtr(a)))
	}
	g.d.View = v
}
