package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bdhtm/internal/bdserve"
	"bdhtm/internal/nvm"
	"bdhtm/internal/wire"
)

// served is the network surface: a bdserve instance in this process, driven
// over loopback TCP by the benchmark's own clients.
type served struct {
	p    *plan
	cfg  bdserve.Config
	srv  *bdserve.Server
	addr string
	live int64 // keys present, tracked from the applied acks
}

const (
	ackTimeout    = 20 * time.Second
	prefillWindow = 256
	drillWindow   = 32
)

func (p *plan) serverConfig(manual bool) bdserve.Config {
	return bdserve.Config{
		KeySpace:    p.keyspace,
		HeapWords:   p.heapWords(),
		EpochLength: p.sp.epochLen,
		Manual:      manual,
	}
}

func (s *served) start(srv *bdserve.Server) error {
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("start bdserve: %w", err)
	}
	s.srv, s.addr = srv, addr.String()
	return nil
}

// buildServed is the served set-up phase: server, listener, prefill of the
// live half over one connection, wait for every durable ack.
func buildServed(p *plan) (sut, error) {
	s := &served{p: p, cfg: p.serverConfig(false)}
	if err := s.start(bdserve.New(s.cfg)); err != nil {
		return nil, err
	}
	c, err := dial(s.addr, p, prefillWindow, true)
	if err != nil {
		return nil, err
	}
	c.start(nil)
	defer c.close()
	for i := uint64(0); i < p.live; i++ {
		k := p.liveKey(i)
		if err := c.issue(opPut, k, p.value(k, 0)); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	if err := c.drain(ackTimeout); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	if c.rx.fails > 0 {
		return nil, fmt.Errorf("prefill: %s", c.rx.failNote)
	}
	s.live = c.rx.liveDelta
	return s, nil
}

func (s *served) handles() handles {
	return handles{heap: s.srv.Heap(), sys: s.srv.System(), tmStats: s.srv.TMStats, srv: s.srv}
}

func (s *served) liveKeys() int64 { return s.live }

func (s *served) close() { s.srv.Close() }

func (s *served) conns() int {
	if s.p.sp.conns > 0 {
		return s.p.sp.conns
	}
	return runtime.NumCPU()
}

func (s *served) run(phase int, d time.Duration, segOps int, tr *tracer) *pass {
	ps := &pass{before: s.handles().snapshot()}
	n := s.conns()
	clients := make([]*client, n)
	for i := range clients {
		c, err := dial(s.addr, s.p, s.p.sp.window, true)
		if err != nil {
			for _, open := range clients[:i] {
				open.close()
			}
			ps.fail("%v", err)
			return ps
		}
		c.traced = tr != nil
		c.start(tr)
		clients[i] = c
	}
	type sender struct {
		ops, writes int64
		rates       []float64
		err         error
	}
	res := make([]sender, n)
	gc0, cpu0, t0 := readGC(), cpuTime(), time.Now()
	deadline := now() + int64(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, st := &res[i], s.p.stream(i, phase)
			segStart := now()
			for {
				for j := 0; j < segOps; j++ {
					kind, key, val := st.next()
					if kind != opGet {
						out.writes++
					}
					if out.err = c.issue(kind, key, val); out.err != nil {
						return
					}
				}
				segEnd := now()
				out.ops += int64(segOps)
				out.rates = append(out.rates, float64(segOps)/(float64(segEnd-segStart)/1e9))
				if segStart = segEnd; segEnd >= deadline {
					return
				}
			}
		}()
	}
	wg.Wait()
	ps.wall, ps.cpu = time.Since(t0), cpuTime()-cpu0
	for i, c := range clients {
		if res[i].err == nil {
			res[i].err = c.drain(ackTimeout)
		}
		c.close()
		if res[i].err != nil {
			ps.fail("connection %d: %v", i, res[i].err)
		}
	}
	ps.finish(s.handles(), gc0)
	for i, c := range clients {
		rx := &c.rx
		ps.absorb(res[i].ops, res[i].writes, res[i].rates, &rx.lat, &rx.kindLat, rx.fails, rx.failNote)
		ps.durable.merge(&rx.durable)
		ps.a2d.merge(&rx.a2d)
		ps.decode.merge(&rx.decode)
		ps.wireBytes += c.txBytes + rx.rxBytes
		ps.spans = append(ps.spans, rx.spans...)
		s.live += rx.liveDelta
	}
	return ps
}

// session opens a drill connection whose first replies are kept, by request
// id, in a table of n entries.
func (s *served) session(n int) (*client, error) {
	c, err := dial(s.addr, s.p, drillWindow, false)
	if err != nil {
		return nil, err
	}
	c.results = make([]wire.Msg, n+1) // ids start at 1
	c.start(nil)
	return c, nil
}

// recoverServed is the timed section of a served cycle: recover the heap,
// listen, and have the first GET answered.
func (s *served) recoverServed(heap *nvm.Heap) error {
	if err := s.start(bdserve.Recover(heap, s.cfg)); err != nil {
		return err
	}
	c, err := s.session(1)
	if err != nil {
		return err
	}
	defer c.close()
	if err := c.issue(opGet, 0, 0); err != nil {
		return err
	}
	return c.drain(ackTimeout)
}

// applyCycle sends one drill cycle's writes over one connection, advancing
// the epoch by hand at the two fixed op indices, and returns what it knows
// about every key it touched. A GET ahead of a key's first write reads the
// key's state before the cycle: the server executes a connection's requests
// in order.
func (s *served) applyCycle(cycle, ops int, advanceAt [2]int) (model map[uint64]*keyHist, fails int64, err error) {
	c, err := s.session(2 * ops)
	if err != nil {
		return nil, 0, err
	}
	defer c.close()
	type sent struct {
		key  uint64
		base bool
		op   drillOp
	}
	reqs := make([]sent, 1, 2*ops+1) // indexed by request id
	model = make(map[uint64]*keyHist, ops)
	st := s.p.drillStream(cycle)
	for i := 0; i < ops; i++ {
		if i == advanceAt[0] || i == advanceAt[1] {
			if err := c.drain(ackTimeout); err != nil {
				return nil, 0, err
			}
			s.srv.System().AdvanceOnce()
		}
		k, o := st.next()
		if model[k] == nil {
			model[k] = &keyHist{}
			reqs = append(reqs, sent{key: k, base: true})
			if err := c.issue(opGet, k, 0); err != nil {
				return nil, 0, err
			}
		}
		reqs = append(reqs, sent{key: k, op: o})
		kind := opPut
		if o.del {
			kind = opDel
		}
		if err := c.issue(kind, k, o.val); err != nil {
			return nil, 0, err
		}
	}
	if err := c.drain(ackTimeout); err != nil {
		return nil, 0, err
	}
	for id := 1; id < len(reqs); id++ {
		r, m, h := reqs[id], c.results[id], model[reqs[id].key]
		if r.base {
			h.base = kv{m.Found, m.Value}
			continue
		}
		r.op.epoch = m.Epoch
		h.ops = append(h.ops, r.op)
	}
	return model, c.rx.fails, nil
}

// verifyCycle reads every touched key back over the wire and checks it
// against the recovered watermark.
func (s *served) verifyCycle(cycle int, model map[uint64]*keyHist, d *drillResult) error {
	c, err := s.session(len(model))
	if err != nil {
		return err
	}
	defer c.close()
	keys := make([]uint64, 1, len(model)+1) // indexed by request id
	for k := range model {
		keys = append(keys, k)
		if err := c.issue(opGet, k, 0); err != nil {
			return err
		}
	}
	if err := c.drain(ackTimeout); err != nil {
		return err
	}
	watermark := s.srv.System().PersistedEpoch()
	for id := 1; id < len(keys); id++ {
		d.checked++
		got := kv{c.results[id].Found, c.results[id].Value}
		if h := model[keys[id]]; !h.legal(watermark, got) {
			d.fail("cycle %d: key %d recovered as %+v, watermark %d, history %+v", cycle, keys[id], got, watermark, *h)
		}
	}
	d.failed += c.rx.fails
	return nil
}

func (s *served) drill(cycles, ops int) *drillResult {
	d := &drillResult{}
	s.cfg = s.p.serverConfig(true)
	heap := s.srv.Heap()
	s.srv.Crash(nvm.CrashOptions{})
	runtime.GC()
	t0 := time.Now()
	if err := s.recoverServed(heap); err != nil {
		d.fail("first recovery: %v", err)
		return d
	}
	d.first = time.Since(t0).Seconds()

	for cy := 0; cy < cycles; cy++ {
		model, fails, err := s.applyCycle(cy, ops, [2]int{ops / 2, ops * 3 / 4})
		if err != nil {
			d.fail("cycle %d: %v", cy, err)
			return d
		}
		d.failed += fails

		heap := s.srv.Heap()
		s.srv.Crash(nvm.CrashOptions{EvictFraction: 0.5, Seed: uint64(cy + 1)})
		runtime.GC()
		t0 := time.Now()
		if err := s.recoverServed(heap); err != nil {
			d.fail("cycle %d recovery: %v", cy, err)
			return d
		}
		took := time.Since(t0).Seconds()
		// The server rebuilds its table in private; what is not header
		// scan (rebuild, listen, first GET) is charged to the rebuild.
		es := s.srv.System().Stats()
		scan := float64(es.RecoveryScanNS) / 1e9
		d.times = append(d.times, took)
		d.scan = append(d.scan, scan)
		d.rebuild = append(d.rebuild, took-scan)
		d.blocks = es.RecoveredLive

		if err := s.verifyCycle(cy, model, d); err != nil {
			d.fail("cycle %d verify: %v", cy, err)
			return d
		}
	}
	return d
}
