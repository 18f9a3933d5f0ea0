package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bdhtm/internal/bdhash"
	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

const tableTag = 1

// embedded is the in-process surface: a bdhash table on an epoch system on a
// simulated NVM heap, driven by goroutines that call the table directly.
type embedded struct {
	p    *plan
	heap *nvm.Heap
	sys  *epoch.System
	tm   *htm.TM
	tab  *bdhash.Table
	ws   []*epoch.Worker
}

func (p *plan) heapWords() int { return int(p.keyspace)*4 + 1<<21 }

func (p *plan) tmConfig() htm.Config {
	if p.sp.slowpath {
		// Every attempt is killed up front, so every op exhausts its
		// retries and runs the fine-grained fallback session.
		return htm.Config{SpuriousRate: 1, Seed: 0x510e}
	}
	return htm.Config{}
}

// buildEmbedded is the embedded set-up phase: heap, epoch system, table,
// prefill of the live half from one goroutine, Sync.
func buildEmbedded(p *plan) *embedded {
	hc := nvm.Config{Words: p.heapWords()}
	if p.sp.latency {
		hc.Latency = nvm.OptaneProfile
	}
	e := &embedded{p: p, heap: nvm.New(hc), tm: htm.New(p.tmConfig())}
	e.sys = epoch.New(e.heap, epoch.Config{EpochLength: p.sp.epochLen})
	e.tab = bdhash.New(e.sys, e.tm, int(p.keyspace), tableTag)
	for i := 0; i < embeddedWorkers(); i++ {
		e.ws = append(e.ws, e.sys.Register())
	}
	for i := uint64(0); i < p.live; i++ {
		k := p.liveKey(i)
		e.tab.Insert(e.ws[0], k, p.value(k, 0))
	}
	e.sys.Sync()
	return e
}

func (e *embedded) handles() handles {
	return handles{heap: e.heap, sys: e.sys, tmStats: e.tm.Stats}
}

func (e *embedded) liveKeys() int64 { return int64(e.tab.Len()) }

// close stops the background advancer; the heap goes to the collector.
func (e *embedded) close() { e.sys.SimulateCrash(nvm.CrashOptions{}) }

// durSample is one timed write awaiting its epoch.
type durSample struct {
	at, done int64
	epoch    uint64
	root     uint64 // span to hang the durable child on (traced pass)
}

// mark is one observation of the durable watermark.
type mark struct {
	epoch uint64
	at    int64
}

// watchDurable records when the durable watermark was first seen at each
// value, from a goroutine poked by the epoch system. stop returns the
// timeline after one last reading.
func watchDurable(sys *epoch.System) (stop func() []mark) {
	ch := make(chan uint64, 1)
	cancel := sys.SubscribeDurable(ch)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	timeline := []mark{{sys.PersistedEpoch(), now()}}
	read := func() {
		if p := sys.PersistedEpoch(); p > timeline[len(timeline)-1].epoch {
			timeline = append(timeline, mark{p, now()})
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-ch:
				read()
			case <-quit:
				read()
				return
			}
		}
	}()
	return func() []mark {
		close(quit)
		wg.Wait()
		cancel()
		return timeline
	}
}

// durableAt is the first time the watermark was seen at or above epoch.
func durableAt(timeline []mark, epoch uint64) (int64, bool) {
	i := sort.Search(len(timeline), func(i int) bool { return timeline[i].epoch >= epoch })
	if i == len(timeline) {
		return 0, false
	}
	return timeline[i].at, true
}

// issuerResult is what one embedded worker measured.
type issuerResult struct {
	ops, writes int64
	rates       []float64
	lat         hist
	kindLat     [3]hist
	samples     []durSample
	spans       []span
	fails       int64
	failNote    string
}

func (e *embedded) run(phase int, d time.Duration, segOps int, tr *tracer) *pass {
	ps := &pass{before: e.handles().snapshot()}
	stopWatch := watchDurable(e.sys)
	res := make([]issuerResult, len(e.ws))
	gc0, cpu0, t0 := readGC(), cpuTime(), time.Now()
	deadline := now() + int64(d)
	var wg sync.WaitGroup
	for i := range e.ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.issue(i, e.p.stream(i, phase), deadline, segOps, tr, &res[i])
		}()
	}
	wg.Wait()
	ps.wall, ps.cpu = time.Since(t0), cpuTime()-cpu0
	e.sys.Sync()
	timeline := stopWatch()
	ps.finish(e.handles(), gc0)
	for i := range res {
		r := &res[i]
		ps.absorb(r.ops, r.writes, r.rates, &r.lat, &r.kindLat, r.fails, r.failNote)
		for _, s := range r.samples {
			at, ok := durableAt(timeline, s.epoch)
			if !ok {
				ps.fail("write in epoch %d never seen durable", s.epoch)
				continue
			}
			// A sample whose epoch was already durable when the op
			// returned was made durable within the call.
			at = max(at, s.done)
			ps.durable.record(at - s.at)
			if s.root != 0 {
				tr.add(&r.spans, s.root, "epoch.durable", s.done, at)
			}
		}
		ps.spans = append(ps.spans, r.spans...)
	}
	return ps
}

// issue is one worker's closed loop: fixed-op-count segments timed by the
// worker itself, one op in traceEvery timed individually.
func (e *embedded) issue(worker int, s *stream, deadline int64, segOps int, tr *tracer, out *issuerResult) {
	w, tab, p := e.ws[worker], e.tab, e.p
	out.samples = make([]durSample, 0, 1<<16)
	for {
		segStart := now()
		for i := 0; i < segOps; i++ {
			timed := i%traceEvery == 0
			var tGen, t0 int64
			if timed && tr != nil {
				tGen = now()
			}
			kind, key, val := s.next()
			if timed {
				t0 = now()
			}
			switch kind {
			case opGet:
				if v, ok := tab.GetW(nil, key); ok && !p.valueOK(key, v) {
					out.fails++
					out.failNote = fmt.Sprintf("GET %d returned %#x, never written for that key", key, v)
				}
			case opPut:
				tab.Insert(w, key, val)
				out.writes++
			default:
				tab.Remove(w, key)
				out.writes++
			}
			if !timed {
				continue
			}
			t1 := now()
			out.lat.record(t1 - t0)
			var root uint64
			if tr != nil {
				out.kindLat[kind].record(t1 - t0)
				root = tr.add(&out.spans, 0, "op."+kindNames[kind], tGen, t1)
				tr.add(&out.spans, root, "bench.next_op", tGen, t0)
				tr.add(&out.spans, root, "bdhash."+kindNames[kind], t0, t1)
			}
			if kind != opGet {
				out.samples = append(out.samples, durSample{at: t0, done: t1, epoch: w.OpEpoch(), root: root})
			}
		}
		segEnd := now()
		out.ops += int64(segOps)
		out.rates = append(out.rates, float64(segOps)/(float64(segEnd-segStart)/1e9))
		if segEnd >= deadline {
			return
		}
	}
}
