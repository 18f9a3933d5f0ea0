package bdserve

import (
	"net"
	"sync"
	"sync/atomic"

	"bdhtm/internal/kv"
	"bdhtm/internal/obs"
	"bdhtm/internal/wire"
)

// outBound bounds a connection's unsent reply bytes: the frames in out
// plus the batch being written to the socket. The reader waits (and so
// stops reading requests) while its next reply would not fit, so a client
// that pipelines and never reads holds at most this many reply bytes.
const outBound = 64 << 10

// sendAt is the size at which the reader sends out itself rather than
// go on executing buffered requests, so the client gets replies (and
// refills its window) while a long burst executes.
const sendAt = 1 << 10

// pendingAck is one write op waiting for its epoch to persist. Entries
// are appended in completion order by the reader, and per connection the
// commit epochs are non-decreasing (the global epoch never moves
// backwards), so the acker only ever drains a prefix.
type pendingAck struct {
	id    uint64
	ok    bool
	epoch uint64

	sp    *obs.Span // sampled request span (nil for unsampled)
	decNS int64     // decode timestamp, for durable-ack latency
	cmtNS int64     // HTM commit timestamp, for commit→durable lag
}

// ackFIFO is a connection's pending-ack queue. It drains from a head
// index and moves what is left to the front only when a push would grow
// the slice, so a steady stream of pushes and pops reuses one array.
type ackFIFO struct {
	q    []pendingAck
	head int
}

func (f *ackFIFO) len() int { return len(f.q) - f.head }

// front is the oldest entry; the queue must not be empty.
func (f *ackFIFO) front() *pendingAck { return &f.q[f.head] }

func (f *ackFIFO) push(p pendingAck) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:]) // drop the moved entries' span pointers
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, p)
}

// pop removes the oldest entry; the queue must not be empty.
func (f *ackFIFO) pop() {
	f.q[f.head] = pendingAck{}
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
}

type conn struct {
	srv  *Server
	nc   net.Conn
	sess kv.Session

	durCh      chan uint64   // coalescing doorbell from the durable watermark
	cancelSub  func()        // unsubscribes durCh
	readerGone chan struct{} // closed when the reader exits

	// closing is set just before we close our own socket, so the reader's
	// resulting Read error is treated as teardown rather than a peer
	// protocol violation.
	closing atomic.Bool

	// mu guards the reply buffer and the pending durable acks together: a
	// write's applied frame and its pending entry enter in one critical
	// section, and a durable frame is appended only by a drain that pops
	// the entry, so it always follows its applied frame in out.
	mu      sync.Mutex
	room    sync.Cond // broadcast when a write to the socket returns
	out     []byte    // encoded replies not yet handed to the socket
	replies int64     // reply frames in out (a durable ack is not one)
	spare   []byte    // the last sent batch's array, reused as the next out
	sending int       // bytes of the batch on the socket; 0 when nobody sends
	dead    bool      // a socket write failed: replies are dropped
	pending ackFIFO

	frame []byte // the reader's encode scratch
	lane  uint64 // obs shard for this connection's histograms and spans
}

// reply appends m's frame to out and, for a write, queues p for its
// durable ack in the same critical section. It waits while the frame,
// and p's durable frame to come, would take the unsent bytes past
// outBound; only a sender's write frees room, and the reader sends out
// itself once it holds sendAt bytes, so it waits only while another
// goroutine is sending. sp and decNS, when set, get the applied phase.
// It reports false once the socket is dead.
func (c *conn) reply(m *wire.Msg, sp *obs.Span, decNS int64, p *pendingAck) bool {
	c.frame, _ = wire.Append(c.frame[:0], m) // every frame the server builds encodes
	need := len(c.frame)
	if p != nil {
		need += wire.AckFrameLen // the durable ack to come
	}
	c.mu.Lock()
	for len(c.out)+c.sending+need > outBound && !c.dead {
		c.room.Wait()
	}
	if c.dead {
		c.mu.Unlock()
		return false
	}
	c.out = append(c.out, c.frame...)
	c.replies++
	c.srv.inflight.Add(1) // until a sender takes the frame
	full := len(c.out) >= sendAt
	if o := c.srv.cfg.Obs; o != nil && decNS > 0 {
		// Stamped under the lock: a drain that releases this write's
		// durable ack takes its flush stamp later.
		now := o.Now()
		o.SvcRecord(obs.SvcAppliedAckNS, c.lane, now-decNS)
		sp.Stamp(obs.SpanApplied, now)
		if p == nil {
			sp.Finish() // a read's span ends at its response
		}
	}
	if p != nil {
		c.pending.push(*p)
		c.srv.ackQueue.Add(1)
	}
	c.mu.Unlock()
	if m.Type == wire.RespApplied {
		c.srv.appliedAcks.Add(1)
	}
	return !full || c.send(false)
}

// send appends the durable acks the watermark has released and writes
// out to the socket, one Write per batch, until nothing is left. One
// goroutine writes at a time: if the other is sending, send leaves out to
// that sender's loop, or with wait returns only once every byte is on
// the socket. It reports false once the socket is dead.
func (c *conn) send(wait bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.dead {
		c.drainDurable()
		if c.sending > 0 {
			if !wait {
				break
			}
			c.room.Wait()
			continue
		}
		if len(c.out) == 0 {
			break
		}
		b := c.out
		c.out, c.spare = c.spare, nil
		c.sending = len(b)
		c.srv.inflight.Add(-c.replies)
		c.replies = 0
		c.mu.Unlock()
		_, err := c.nc.Write(b)
		c.mu.Lock()
		c.sending, c.spare = 0, b[:0]
		c.dead = err != nil
		c.room.Broadcast()
	}
	return !c.dead
}

// farewell sends m after every reply before it and closes the
// connection: the peer broke the protocol.
func (c *conn) farewell(m *wire.Msg) {
	c.srv.protoErrors.Add(1)
	if c.reply(m, nil, 0, nil) {
		c.send(true)
	}
	c.closing.Store(true)
	c.nc.Close()
}

// readLoop decodes and executes requests and appends their replies to
// out. Execution happens here, on the connection's own goroutine, inside
// HTM transactions on the connection's private epoch worker.
func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer close(c.readerGone)
	srv := c.srv
	r := wire.NewReader(c.nc)
	for {
		// Input drained: send the batch before blocking in Read, so a
		// lone request costs no hand-off. A long burst is sent in sendAt
		// pieces by reply.
		if r.Buffered() == 0 && !c.send(false) {
			return
		}
		m, err := r.Read()
		if err != nil {
			if wire.IsProtocol(err) && !srv.isClosed() && !c.closing.Load() {
				// The peer spoke garbage: farewell frame, then close. ID 0
				// because the stream is broken and the offending request's
				// ID is unknowable.
				c.farewell(&wire.Msg{Type: wire.RespError, Code: wire.ECodeProto, Text: err.Error()})
			}
			// Otherwise a clean EOF or our own teardown: the writer sees
			// readerGone and closes the connection.
			return
		}
		if !m.Type.IsRequest() {
			c.farewell(&wire.Msg{
				Type: wire.RespError, ID: m.ID, Code: wire.ECodeOrder,
				Text: "response frame " + m.Type.String() + " sent to server",
			})
			return
		}
		srv.requests.Add(1)
		// Sample a request span (deterministic in the request ID). decNS
		// doubles as the latency origin for the ack histograms, recorded
		// for every request whenever obs is on, sampled or not. STATS
		// frames are introspection, not ops — never sampled.
		o := srv.cfg.Obs
		var sp *obs.Span
		var decNS int64
		if o != nil && m.Type != wire.CmdStats && m.Key <= srv.keyLimit {
			decNS = o.Now()
			sp = o.SampleSpan(m.ID, c.lane, uint8(m.Type))
		}
		var resp wire.Msg
		var pend *pendingAck
		switch {
		case m.Key > srv.keyLimit:
			// A bounded-universe structure (veb) panics on such a key;
			// refuse the request instead and keep the connection.
			resp = wire.Msg{
				Type: wire.RespError, ID: m.ID, Code: wire.ECodeServer,
				Text: "key outside the served key space",
			}
		case m.Type == wire.CmdGet:
			if sp != nil {
				sp.Stamp(obs.SpanExec, o.Now())
				c.sess.SetSpan(sp)
			}
			v, found := c.sess.Get(m.Key)
			if sp != nil {
				c.sess.SetSpan(nil)
				sp.OK = found
				sp.Stamp(obs.SpanCommit, o.Now())
			}
			resp = wire.Msg{Type: wire.RespValue, ID: m.ID, Found: found, Value: v}
		case m.Type == wire.CmdStats:
			st := srv.WireStats()
			resp = wire.Msg{Type: wire.RespStats, ID: m.ID, Stats: &st}
		default: // CmdPut, CmdDel
			if sp != nil {
				sp.Write = true
				sp.Stamp(obs.SpanExec, o.Now())
				c.sess.SetSpan(sp)
			}
			var ok bool
			if m.Type == wire.CmdPut {
				ok = c.sess.Insert(m.Key, m.Value)
			} else {
				ok = c.sess.Remove(m.Key)
			}
			ep := c.sess.Epoch()
			var cmtNS int64
			if o != nil {
				cmtNS = o.Now()
			}
			if sp != nil {
				c.sess.SetSpan(nil)
				sp.OK = ok
				sp.CommitEpoch = ep
				sp.Stamp(obs.SpanCommit, cmtNS)
			}
			srv.writeCommits.Add(1)
			pend = &pendingAck{id: m.ID, ok: ok, epoch: ep, sp: sp, decNS: decNS, cmtNS: cmtNS}
			resp = wire.Msg{Type: wire.RespApplied, ID: m.ID, OK: ok, Epoch: ep}
		}
		if !c.reply(&resp, sp, decNS, pend) {
			return
		}
		// The watermark may have covered the op's epoch before its entry
		// was queued, and the wake for that movement found nothing to
		// ack: no later wake is owed, so ring the doorbell here.
		if pend != nil && pend.epoch <= srv.sys.PersistedEpoch() {
			select {
			case c.durCh <- 0:
			default:
			}
		}
	}
}

// writeLoop sends the durable acks each watermark movement releases
// (durCh), and tears the connection down once the reader exits or a
// write fails.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	defer c.srv.dropConn(c)
	for {
		select {
		case <-c.durCh:
		case <-c.readerGone:
			return
		}
		if !c.send(false) {
			return
		}
	}
}

// drainDurable is the group-commit acker: it re-reads the durable
// watermark and appends RespDurable for every pending prefix entry whose
// commit epoch has persisted, while the frames fit under outBound. The
// server-wide counters move once per drain, not once per ack: every
// reader bumps the counters beside them on every request. The caller holds
// c.mu.
func (c *conn) drainDurable() {
	srv := c.srv
	o := srv.cfg.Obs
	watermark := srv.sys.PersistedEpoch()
	// One flush stamp per drain: every op released by this watermark
	// movement shares the group commit, so its span records the same
	// epoch-flush instant. Taken under the lock, after the applied
	// stamps of every entry it releases.
	var flushNS int64
	var acked int64
	var lag uint64 // the first entry's: commit epochs never decrease
	for c.pending.len() > 0 && len(c.out)+c.sending+wire.AckFrameLen <= outBound {
		p := c.pending.front()
		if p.epoch > watermark {
			break
		}
		if acked == 0 {
			lag = watermark - p.epoch
		}
		acked++
		c.out = wire.AppendAck(c.out, wire.RespDurable, p.id, p.ok, p.epoch)
		if o != nil {
			now := o.Now()
			if flushNS == 0 {
				flushNS = now
			}
			if p.decNS > 0 {
				o.SvcRecord(obs.SvcDurableAckNS, c.lane, now-p.decNS)
			}
			if p.cmtNS > 0 {
				o.SvcRecord(obs.SvcAckLagNS, c.lane, now-p.cmtNS)
			}
			o.SvcRecord(obs.SvcAckLagEpochs, c.lane, int64(watermark-p.epoch))
			if p.sp != nil {
				p.sp.Stamp(obs.SpanFlush, flushNS)
				p.sp.Stamp(obs.SpanDurable, now)
				p.sp.DurableEpoch = watermark
				p.sp.Finish()
			}
		}
		c.pending.pop()
	}
	if acked > 0 {
		srv.durableAcks.Add(acked)
		srv.ackQueue.Add(-acked)
		srv.bumpAckLag(int64(lag))
	}
}
