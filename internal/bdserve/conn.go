package bdserve

import (
	"net"
	"sync"
	"sync/atomic"

	"bdhtm/internal/kv"
	"bdhtm/internal/obs"
	"bdhtm/internal/wire"
)

// outMsg is one frame queued for the writer. seq orders a write op's
// applied ack against its durable ack: the durable drain only releases
// a pending entry once the writer has written the applied ack with the
// same seq (trivially satisfied in sync mode, where seq is 0 and no
// applied ack exists). closeAfter makes the writer flush and tear the
// connection down after this frame (protocol-error farewells).
type outMsg struct {
	m          wire.Msg
	seq        uint64
	closeAfter bool

	sp    *obs.Span // sampled request span (nil for unsampled / non-op frames)
	decNS int64     // request decode timestamp (0 when obs is off)
}

// pendingAck is one write op waiting for its epoch to persist. Entries
// are appended in completion order by the reader, and per connection the
// commit epochs are non-decreasing (the global epoch never moves
// backwards), so the acker only ever drains a prefix.
type pendingAck struct {
	id    uint64
	ok    bool
	epoch uint64
	seq   uint64

	sp    *obs.Span // sampled request span (nil for unsampled)
	decNS int64     // decode timestamp, for durable-ack latency
	cmtNS int64     // HTM commit timestamp, for commit→durable lag
}

type conn struct {
	srv  *Server
	nc   net.Conn
	sess kv.Session

	respCh     chan outMsg
	durCh      chan struct{} // coalescing doorbell from the durable watermark
	writerGone chan struct{} // closed when the writer exits
	readerGone chan struct{} // closed when the reader exits

	// closing is set (by the writer or dropConn) just before we close
	// our own socket, so the reader's resulting Read error is treated as
	// teardown rather than a peer protocol violation.
	closing atomic.Bool

	ackMu   sync.Mutex
	pending []pendingAck

	seq      uint64       // write-op sequence (reader-only writes)
	lane     uint64       // obs shard for this connection's metrics/hists
	inflight atomic.Int64 // this conn's share of the inflight gauge
}

// pokeDurable is the coalescing wake from the server's notify loop.
func (c *conn) pokeDurable() {
	select {
	case c.durCh <- struct{}{}:
	default:
	}
}

func (c *conn) bumpInflight(d int64) {
	c.inflight.Add(d)
	c.srv.gauge(obs.GServeInflight, c.srv.inflight.Add(d))
}

// send hands a frame to the writer. If the writer has already exited
// (dead socket) the frame is dropped — nobody is listening.
func (c *conn) send(m outMsg) {
	select {
	case c.respCh <- m:
	case <-c.writerGone:
	}
}

// readLoop decodes and executes requests. Execution happens here, on
// the connection's own goroutine, inside HTM transactions on the
// connection's private epoch worker; only socket writes are delegated
// to the writer.
func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer close(c.readerGone)
	srv := c.srv
	r := wire.NewReader(c.nc)
	for {
		m, err := r.Read()
		if err != nil {
			if wire.IsProtocol(err) && !srv.isClosed() && !c.closing.Load() {
				// The peer spoke garbage: farewell frame, then close. ID 0
				// because the stream is broken and the offending request's
				// ID is unknowable.
				srv.protoErrors.Add(1)
				c.send(outMsg{m: wire.Msg{
					Type: wire.RespError, Code: wire.ECodeProto, Text: err.Error(),
				}, closeAfter: true})
			} else {
				// Clean EOF, or our own teardown: close quietly. Closing
				// respCh still delivers the frames already buffered, then
				// stops the writer.
				c.nc.Close()
				close(c.respCh)
			}
			return
		}
		if !m.Type.IsRequest() {
			srv.protoErrors.Add(1)
			c.send(outMsg{m: wire.Msg{
				Type: wire.RespError, ID: m.ID, Code: wire.ECodeOrder,
				Text: "response frame " + m.Type.String() + " sent to server",
			}, closeAfter: true})
			return
		}
		srv.requests.Add(1)
		srv.metric(obs.MServeReqs, c.lane, 1)
		c.bumpInflight(1)
		if m.Key > srv.keyLimit {
			// A bounded-universe structure (veb) panics on such a key;
			// refuse the request instead and keep the connection.
			c.bumpInflight(-1)
			c.send(outMsg{m: wire.Msg{
				Type: wire.RespError, ID: m.ID, Code: wire.ECodeServer,
				Text: "key outside the served key space",
			}})
			continue
		}
		// Sample a request span (deterministic in the request ID). decNS
		// doubles as the latency origin for the ack histograms, recorded
		// for every request whenever obs is on, sampled or not. STATS
		// frames are introspection, not ops — never sampled.
		o := srv.cfg.Obs
		var sp *obs.Span
		var decNS int64
		if o != nil && m.Type != wire.CmdStats {
			decNS = o.Now()
			sp = o.SampleSpan(m.ID, c.lane, uint8(m.Type))
		}
		switch m.Type {
		case wire.CmdGet:
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
			c.bumpInflight(-1)
			c.send(outMsg{m: wire.Msg{Type: wire.RespValue, ID: m.ID, Found: found, Value: v}, sp: sp, decNS: decNS})
		case wire.CmdScan:
			// Wire-level stub: the scan op exists in the protocol and the
			// workloads (YCSB E), but returns no entries yet.
			if sp != nil {
				now := o.Now()
				sp.OK = true
				sp.Stamp(obs.SpanExec, now)
				sp.Stamp(obs.SpanCommit, now)
			}
			c.bumpInflight(-1)
			c.send(outMsg{m: wire.Msg{Type: wire.RespScan, ID: m.ID, Count: 0}, sp: sp, decNS: decNS})
		case wire.CmdStats:
			st := srv.wireStats()
			c.bumpInflight(-1)
			c.send(outMsg{m: wire.Msg{Type: wire.RespStats, ID: m.ID, Stats: &st}})
		case wire.CmdPut, wire.CmdDel:
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
			seq := uint64(0)
			if !srv.cfg.SyncAcks {
				c.seq++
				seq = c.seq
			}
			// Enqueue for the durable ack FIRST, then send the applied
			// ack: the durable drain gates on seq <= appliedDone, so the
			// durable frame can never overtake its applied frame even
			// though it is queued earlier.
			c.ackMu.Lock()
			c.pending = append(c.pending, pendingAck{id: m.ID, ok: ok, epoch: ep, seq: seq, sp: sp, decNS: decNS, cmtNS: cmtNS})
			c.ackMu.Unlock()
			srv.gauge(obs.GServeAckQueue, srv.ackQueue.Add(1))
			if !srv.cfg.SyncAcks {
				c.send(outMsg{m: wire.Msg{Type: wire.RespApplied, ID: m.ID, OK: ok, Epoch: ep}, seq: seq, sp: sp, decNS: decNS})
			}
			// Always poke: the watermark may already have passed ep (the
			// epoch can persist between the op's commit and this enqueue),
			// in which case no future advance will wake this connection.
			c.pokeDurable()
		}
	}
}

// writeLoop owns the socket's write side: immediate responses arrive on
// respCh, and durable-watermark wakes on durCh trigger the group-commit
// drain. Frames are buffered and flushed once per quiet point, so a
// single watermark movement acks a whole epoch's ops with one syscall.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	defer c.srv.dropConn(c)
	defer close(c.writerGone)
	w := wire.NewWriter(c.nc)
	var appliedDone uint64 // highest applied-ack seq actually written
	dirty := false
	for {
		var m outMsg
		var ok bool
		if dirty {
			// Opportunistically batch: block only once the buffer is
			// flushed.
			select {
			case m, ok = <-c.respCh:
			case <-c.durCh:
				if !c.drainDurable(w, appliedDone) {
					return
				}
				continue
			default:
				if w.Flush() != nil {
					return
				}
				dirty = false
				continue
			}
		} else {
			select {
			case m, ok = <-c.respCh:
			case <-c.durCh:
				if !c.drainDurable(w, appliedDone) {
					return
				}
				if w.Flush() != nil {
					return
				}
				continue
			}
		}
		if !ok {
			w.Flush()
			return
		}
		if err := w.Write(&m.m); err != nil {
			return
		}
		dirty = true
		switch m.m.Type {
		case wire.RespApplied:
			c.srv.appliedAcks.Add(1)
			c.srv.metric(obs.MServeAppliedAcks, 0, 1)
			c.bumpInflight(-1)
			if o := c.srv.cfg.Obs; o != nil && m.decNS > 0 {
				now := o.Now()
				o.SvcRecord(obs.SvcAppliedAckNS, c.lane, now-m.decNS)
				m.sp.Stamp(obs.SpanApplied, now)
			}
			if m.seq > appliedDone {
				appliedDone = m.seq
			}
			// The applied ack may unblock a durable ack whose wake was
			// already consumed; re-check.
			if !c.drainDurable(w, appliedDone) {
				return
			}
		case wire.RespValue, wire.RespScan:
			// A read's span ends at its response: applied-ack latency is
			// the full request latency, and there is nothing to persist.
			if o := c.srv.cfg.Obs; o != nil && m.decNS > 0 {
				now := o.Now()
				o.SvcRecord(obs.SvcAppliedAckNS, c.lane, now-m.decNS)
				m.sp.Stamp(obs.SpanApplied, now)
				m.sp.Finish()
			}
		}
		if m.closeAfter {
			w.Flush()
			c.closing.Store(true)
			c.nc.Close()
			return
		}
	}
}

// drainDurable is the group-commit acker: it re-reads the durable
// watermark and writes RespDurable for every pending prefix entry whose
// commit epoch has persisted and whose applied ack (if any) has been
// written. Returns false on a dead socket.
func (c *conn) drainDurable(w *wire.Writer, appliedDone uint64) bool {
	srv := c.srv
	o := srv.cfg.Obs
	watermark := srv.sys.PersistedEpoch()
	// One flush stamp per drain: every op released by this watermark
	// movement shares the group commit, so its span records the same
	// epoch-flush instant. Taken after any applied-ack stamps on this
	// goroutine, so span phases stay monotone.
	var flushNS int64
	if o != nil {
		flushNS = o.Now()
	}
	for {
		c.ackMu.Lock()
		if len(c.pending) == 0 {
			c.ackMu.Unlock()
			return true
		}
		p := c.pending[0]
		if p.epoch > watermark || (!srv.cfg.SyncAcks && p.seq > appliedDone) {
			c.ackMu.Unlock()
			return true
		}
		c.pending = c.pending[1:]
		c.ackMu.Unlock()
		if err := w.Write(&wire.Msg{Type: wire.RespDurable, ID: p.id, OK: p.ok, Epoch: p.epoch}); err != nil {
			return false
		}
		srv.durableAcks.Add(1)
		srv.metric(obs.MServeDurableAcks, 0, 1)
		srv.gauge(obs.GServeAckQueue, srv.ackQueue.Add(-1))
		srv.bumpAckLag(int64(watermark - p.epoch))
		if o != nil {
			now := o.Now()
			if p.decNS > 0 {
				o.SvcRecord(obs.SvcDurableAckNS, c.lane, now-p.decNS)
			}
			if p.cmtNS > 0 {
				o.SvcRecord(obs.SvcAckLagNS, c.lane, now-p.cmtNS)
			}
			o.SvcRecord(obs.SvcAckLagEpochs, c.lane, int64(watermark-p.epoch))
			if p.sp != nil {
				if srv.cfg.SyncAcks {
					// Sync mode has no separate applied frame: the op is
					// applied and durable from the client's view at this
					// single ack.
					p.sp.Stamp(obs.SpanApplied, flushNS)
				}
				p.sp.Stamp(obs.SpanFlush, flushNS)
				p.sp.Stamp(obs.SpanDurable, now)
				p.sp.DurableEpoch = watermark
				p.sp.Finish()
			}
		}
		if srv.cfg.SyncAcks {
			c.bumpInflight(-1)
		}
	}
}
