package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"bdhtm/internal/wire"
)

// client is the benchmark's own closed-loop wire client: one connection,
// one sender (the caller of issue), one receiver goroutine. The sender takes
// a token per request and the receiver returns it on the request's first
// reply, so at most `window` requests are unanswered at any time. Every
// request has a slot in the ack ledger until its last expected frame
// arrives; anything out of protocol — duplicate, missing, durable before
// applied, a value that was never written for the key — is a failure.
type client struct {
	nc     net.Conn
	p      *plan
	tokens chan struct{}
	ring   []slot
	// awaitDurable: a write is settled by its durable ack (measured
	// passes). The drill's servers advance by hand and are crashed before
	// the last epochs persist, so there a write settles when applied.
	awaitDurable bool
	traced       bool // time encode and decode, for the traced pass's spans

	// sender-owned
	out     []byte
	nextID  uint64
	txBytes int64

	settled atomic.Uint64 // requests whose last expected frame arrived
	done    chan struct{} // closed when the receiver exits

	// receiver-owned; read after drain (settled gives the ordering) or done
	rx      rxStats
	results []wire.Msg // drill only: first reply by request id
}

const ledgerSlots = 1 << 16 // far above window + writes awaiting their epoch

// slot is one ledger entry. The sender fills it before the request's bytes
// leave, the receiver reads it when the reply arrives; the fields are atomic
// because the socket is the only ordering between the two.
type slot struct {
	id      atomic.Uint64
	key     atomic.Uint64
	sendNS  atomic.Int64
	encNS   atomic.Int64
	state   atomic.Uint32 // 0 free, else opKind+1, |slotApplied once acked
	replyNS int64         // receiver-owned
}

const slotApplied = 1 << 4

type rxStats struct {
	lat       hist    // request → first reply
	kindLat   [3]hist // the same, by op kind
	durable   hist    // write → durable ack
	a2d       hist    // applied ack → durable ack
	decode    hist    // time inside wire.Reader.Read not spent waiting on the socket
	fails     int64
	liveDelta int64 // fresh inserts minus effective removes
	rxBytes   int64
	spans     []span
	failNote  string
}

func dial(addr string, p *plan, window int, awaitDurable bool) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial bdserve: %w", err)
	}
	c := &client{
		nc:           nc,
		p:            p,
		tokens:       make(chan struct{}, window),
		ring:         make([]slot, ledgerSlots),
		awaitDurable: awaitDurable,
		nextID:       1,
		done:         make(chan struct{}),
	}
	for i := 0; i < window; i++ {
		c.tokens <- struct{}{}
	}
	return c, nil
}

// start launches the receiver. Options (traced, results) are set first.
func (c *client) start(tr *tracer) { go c.receive(tr) }

// issue sends one request, blocking while the window is full. Request ids
// count up from 1 on each connection.
func (c *client) issue(kind opKind, key, val uint64) error {
	select {
	case <-c.tokens:
	default:
		if err := c.flush(); err != nil {
			return err
		}
		select {
		case <-c.tokens:
		case <-c.done:
			return io.ErrUnexpectedEOF
		}
	}
	id := c.nextID
	c.nextID++
	s := &c.ring[id%ledgerSlots]
	for s.state.Load() != 0 { // ledger wrapped onto a write still awaiting its epoch
		if err := c.flush(); err != nil {
			return err
		}
		runtime.Gosched()
	}
	m := wire.Msg{ID: id, Key: key, Value: val}
	switch kind {
	case opGet:
		m.Type = wire.CmdGet
	case opPut:
		m.Type = wire.CmdPut
	default:
		m.Type = wire.CmdDel
	}
	at := now()
	var err error
	if c.out, err = wire.Append(c.out, &m); err != nil {
		return err
	}
	if c.traced {
		s.encNS.Store(now() - at)
	}
	s.id.Store(id)
	s.key.Store(key)
	s.sendNS.Store(at)
	s.state.Store(uint32(kind) + 1)
	if len(c.out) >= 1<<15 {
		return c.flush()
	}
	return nil
}

func (c *client) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	n, err := c.nc.Write(c.out)
	c.txBytes += int64(n)
	c.out = c.out[:0]
	return err
}

// drain flushes and waits until every issued request is settled.
func (c *client) drain(timeout time.Duration) error {
	if err := c.flush(); err != nil {
		return err
	}
	want := c.nextID - 1
	deadline := time.Now().Add(timeout)
	for c.settled.Load() < want {
		select {
		case <-c.done:
			return fmt.Errorf("connection closed with %d of %d requests settled", c.settled.Load(), want)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out with %d of %d requests settled", c.settled.Load(), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// close tears the connection down and waits for the receiver.
func (c *client) close() {
	c.nc.Close()
	<-c.done
}

// countingReader counts received bytes and, when asked, the time spent
// blocked in the socket read, so decode time can exclude the wait.
type countingReader struct {
	r       io.Reader
	bytes   int64
	timed   bool
	blocked int64
}

func (cr *countingReader) Read(b []byte) (int, error) {
	if !cr.timed {
		n, err := cr.r.Read(b)
		cr.bytes += int64(n)
		return n, err
	}
	t := now()
	n, err := cr.r.Read(b)
	cr.blocked += now() - t
	cr.bytes += int64(n)
	return n, err
}

func (c *client) fail(format string, args ...any) {
	c.rx.fails++
	if c.rx.failNote == "" {
		c.rx.failNote = fmt.Sprintf(format, args...)
	}
}

func (c *client) receive(tr *tracer) {
	defer close(c.done)
	cr := &countingReader{r: c.nc, timed: c.traced}
	rd := wire.NewReader(cr)
	rx := &c.rx
	for {
		var t0, b0 int64
		if c.traced {
			t0, b0 = now(), cr.blocked
		}
		m, err := rd.Read()
		if err != nil {
			rx.rxBytes = cr.bytes
			return // the benchmark closes the connection; drain reports anything still owed
		}
		t := now()
		if c.traced {
			rx.decode.record(t - t0 - (cr.blocked - b0))
		}
		if m.Type == wire.RespError {
			c.fail("error frame %d: %s", m.Code, m.Text)
			continue
		}
		s := &c.ring[m.ID%ledgerSlots]
		st := s.state.Load()
		if st == 0 || s.id.Load() != m.ID {
			// A durable ack for a write the drill already settled is
			// expected; anything else answers a request not outstanding.
			if c.awaitDurable || m.Type != wire.RespDurable {
				c.fail("%v for id %d, which is not outstanding", m.Type, m.ID)
			}
			continue
		}
		kind := opKind(st&^slotApplied - 1)
		sent := s.sendNS.Load()
		switch m.Type {
		case wire.RespValue:
			if kind != opGet {
				c.fail("value reply to a %s", kindNames[kind])
				continue
			}
			if m.Found && !c.p.valueOK(s.key.Load(), m.Value) {
				c.fail("GET %d returned %#x, never written for that key", s.key.Load(), m.Value)
			}
			c.first(s, &m, kind, sent, t)
			c.settle(s, tr, kind, sent, t, t)
		case wire.RespApplied:
			if kind == opGet || st&slotApplied != 0 {
				c.fail("unexpected or duplicate applied ack for id %d", m.ID)
				continue
			}
			switch {
			case kind == opPut && !m.OK:
				rx.liveDelta++
			case kind == opDel && m.OK:
				rx.liveDelta--
			}
			s.replyNS = t
			s.state.Store(st | slotApplied)
			c.first(s, &m, kind, sent, t)
			if !c.awaitDurable {
				c.settle(s, tr, kind, sent, t, t)
			}
		case wire.RespDurable:
			if st&slotApplied == 0 {
				c.fail("durable ack before applied ack for id %d", m.ID)
				continue
			}
			rx.durable.record(t - sent)
			rx.a2d.record(t - s.replyNS)
			c.settle(s, tr, kind, sent, s.replyNS, t)
		default:
			c.fail("unexpected frame %v", m.Type)
		}
	}
}

// first handles a request's first reply: latency, the drill's result table,
// and the window token.
func (c *client) first(s *slot, m *wire.Msg, kind opKind, sent, t int64) {
	c.rx.lat.record(t - sent)
	c.rx.kindLat[kind].record(t - sent)
	if c.results != nil {
		c.results[m.ID] = *m
	}
	c.tokens <- struct{}{}
}

// settle frees the ledger slot after the request's last expected frame.
func (c *client) settle(s *slot, tr *tracer, kind opKind, sent, replied, t int64) {
	if tr != nil && s.id.Load()%traceEvery == 0 {
		enc := s.encNS.Load()
		root := tr.add(&c.rx.spans, 0, "op."+kindNames[kind], sent, t)
		tr.add(&c.rx.spans, root, "wire.encode", sent, sent+enc)
		tr.add(&c.rx.spans, root, "bdserve.reply", sent+enc, replied)
		if kind != opGet {
			tr.add(&c.rx.spans, root, "bdserve.durable", replied, t)
		}
	}
	s.state.Store(0)
	c.settled.Add(1)
}
