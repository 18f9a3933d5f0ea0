package main

import (
	"fmt"
	"runtime"
	"time"

	"bdhtm/internal/bdhash"
	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

// The recovery drill is scripted so that recovery work is the same on every
// run of a seed: crashing the live run at a timer-chosen moment leaves
// whatever the advancer happened to have flushed. Each cycle applies a fixed
// number of seeded put/del ops with the epoch advanced at two fixed op
// indices, so the ops before the first advance are durable and the last two
// epochs are not; crashes with half the dirty lines written back; recovers
// under the clock; and checks every key it touched.

// kv is a key's state: absent, or present with a value.
type kv struct {
	present bool
	val     uint64
}

type drillOp struct {
	epoch uint64
	del   bool
	val   uint64
}

// keyHist is what the drill knows about one key: its state before the
// cycle and the cycle's writes to it, in order.
type keyHist struct {
	base kv
	ops  []drillOp
}

func (o drillOp) state() kv { return kv{present: !o.del, val: o.val} }

// legal reports whether got is a state recovery may leave the key in, given
// the recovered durable watermark: exactly the last write at or below the
// watermark (or the base state if there is none), or — for a key with
// writes above the watermark — one of those later writes.
func (h *keyHist) legal(watermark uint64, got kv) bool {
	durable := h.base
	for _, o := range h.ops {
		if o.epoch <= watermark {
			durable = o.state()
		}
	}
	if got == durable {
		return true
	}
	for _, o := range h.ops {
		if o.epoch > watermark && got == o.state() {
			return true
		}
	}
	return false
}

type drillResult struct {
	first   float64   // recovery of the quiesced state, seconds; not part of recover_s
	times   []float64 // timed cycles, seconds
	scan    []float64 // per cycle: header scan, seconds
	rebuild []float64 // per cycle: index rebuild, seconds
	blocks  int64     // live blocks the last cycle rebuilt
	checked int64
	failed  int64
	note    string
}

func (d *drillResult) fail(format string, args ...any) {
	d.failed++
	if d.note == "" {
		d.note = fmt.Sprintf(format, args...)
	}
}

// drillStream is a cycle's op sequence: put or delete, evenly, on uniform keys.
type drillStream struct {
	p   *plan
	r   rng
	seq uint32
}

func (p *plan) drillStream(cycle int) *drillStream {
	return &drillStream{p: p, r: rng{s: mix64(p.seed ^ uint64(phaseDrill+cycle)<<48)}, seq: uint32(0xd0+cycle) << 20}
}

func (s *drillStream) next() (key uint64, o drillOp) {
	r := s.r.next()
	key = s.r.next() & (s.p.keyspace - 1)
	if r&1 == 0 {
		return key, drillOp{del: true}
	}
	s.seq++
	return key, drillOp{val: s.p.value(key, s.seq)}
}

// recoverEmbedded is the timed section of an embedded cycle: header scan,
// a fresh table, every surviving block rebuilt into it.
func (e *embedded) recoverEmbedded() (scan, rebuild float64, blocks int64) {
	var recs []epoch.BlockRecord
	e.sys = epoch.Recover(e.heap, epoch.Config{Manual: true}, func(r epoch.BlockRecord) {
		if r.Tag == tableTag {
			recs = append(recs, r)
		}
	})
	e.tm = htm.New(e.p.tmConfig())
	e.tab = bdhash.New(e.sys, e.tm, int(e.p.keyspace), tableTag)
	t0 := time.Now()
	for _, r := range recs {
		e.tab.RebuildBlock(r)
	}
	rebuild = time.Since(t0).Seconds()
	e.ws = []*epoch.Worker{e.sys.Register()}
	return float64(e.sys.Stats().RecoveryScanNS) / 1e9, rebuild, int64(len(recs))
}

func (e *embedded) get(k uint64) kv {
	v, ok := e.tab.GetW(nil, k)
	return kv{ok, v}
}

func (e *embedded) drill(cycles, ops int) *drillResult {
	d := &drillResult{}
	e.sys.SimulateCrash(nvm.CrashOptions{})
	runtime.GC()
	t0 := time.Now()
	e.recoverEmbedded()
	d.first = time.Since(t0).Seconds()

	for c := 0; c < cycles; c++ {
		model := make(map[uint64]*keyHist, ops)
		s := e.p.drillStream(c)
		w := e.ws[0]
		for i := 0; i < ops; i++ {
			if i == ops/2 || i == ops*3/4 {
				e.sys.AdvanceOnce()
			}
			k, o := s.next()
			h := model[k]
			if h == nil {
				h = &keyHist{base: e.get(k)}
				model[k] = h
			}
			if o.del {
				e.tab.Remove(w, k)
			} else {
				e.tab.Insert(w, k, o.val)
			}
			o.epoch = w.OpEpoch()
			h.ops = append(h.ops, o)
		}
		e.sys.SimulateCrash(nvm.CrashOptions{EvictFraction: 0.5, Seed: uint64(c + 1)})
		runtime.GC()
		t0 := time.Now()
		scan, rebuild, blocks := e.recoverEmbedded()
		d.times = append(d.times, time.Since(t0).Seconds())
		d.scan = append(d.scan, scan)
		d.rebuild = append(d.rebuild, rebuild)
		d.blocks = blocks

		watermark := e.sys.PersistedEpoch()
		for k, h := range model {
			d.checked++
			if got := e.get(k); !h.legal(watermark, got) {
				d.fail("cycle %d: key %d recovered as %+v, watermark %d, history %+v", c, k, got, watermark, *h)
			}
		}
	}
	return d
}
