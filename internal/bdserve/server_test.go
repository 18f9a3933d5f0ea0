package bdserve

import (
	"net"
	"testing"
	"time"

	"bdhtm/internal/kv"
	"bdhtm/internal/wire"
)

// tclient is a minimal synchronous test client over one connection.
type tclient struct {
	t  *testing.T
	nc net.Conn
	r  *wire.Reader
	w  *wire.Writer
}

func dial(t *testing.T, addr net.Addr) *tclient {
	t.Helper()
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return &tclient{t: t, nc: nc, r: wire.NewReader(nc), w: wire.NewWriter(nc)}
}

func (c *tclient) send(m wire.Msg) {
	c.t.Helper()
	if err := c.w.Write(&m); err != nil {
		c.t.Fatalf("send: %v", err)
	}
	if err := c.w.Flush(); err != nil {
		c.t.Fatalf("flush: %v", err)
	}
}

func (c *tclient) recv() wire.Msg {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	m, err := c.r.Read()
	if err != nil {
		c.t.Fatalf("recv: %v", err)
	}
	return m
}

// recvErr reads one frame expecting an error (including EOF-ish
// failures); returns the message and decode error.
func (c *tclient) recvRaw() (wire.Msg, error) {
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	return c.r.Read()
}

func startServer(t *testing.T, cfg Config) (*Server, net.Addr) {
	t.Helper()
	srv := New(cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

// expectAcks reads frames until both the applied and durable ack for id
// arrive (buffered mode), returning the commit epoch. Fails on
// out-of-order acks (durable before applied) or mismatched IDs.
func expectAcks(t *testing.T, c *tclient, id uint64) (epoch uint64) {
	t.Helper()
	applied := false
	for {
		m := c.recv()
		if m.ID != id {
			t.Fatalf("ack for id %d while waiting on %d", m.ID, id)
		}
		switch m.Type {
		case wire.RespApplied:
			if applied {
				t.Fatalf("duplicate applied ack for id %d", id)
			}
			applied = true
			epoch = m.Epoch
		case wire.RespDurable:
			if !applied {
				t.Fatalf("durable ack before applied ack for id %d", id)
			}
			if m.Epoch != epoch {
				t.Fatalf("durable ack epoch %d != applied epoch %d", m.Epoch, epoch)
			}
			return epoch
		default:
			t.Fatalf("unexpected frame %s for id %d", m.Type, id)
		}
	}
}

func TestBasicOps(t *testing.T) {
	for _, structure := range kv.BufferedKinds() {
		t.Run(structure, func(t *testing.T) {
			_, addr := startServer(t, Config{
				Structure:   structure,
				KeySpace:    1 << 10,
				EpochLength: time.Millisecond,
			})
			c := dial(t, addr)

			c.send(wire.Msg{Type: wire.CmdPut, ID: 1, Key: 7, Value: 70})
			expectAcks(t, c, 1)

			c.send(wire.Msg{Type: wire.CmdGet, ID: 2, Key: 7})
			if m := c.recv(); m.Type != wire.RespValue || !m.Found || m.Value != 70 {
				t.Fatalf("get: %+v", m)
			}

			c.send(wire.Msg{Type: wire.CmdPut, ID: 3, Key: 7, Value: 71})
			expectAcks(t, c, 3)
			c.send(wire.Msg{Type: wire.CmdGet, ID: 4, Key: 7})
			if m := c.recv(); m.Value != 71 {
				t.Fatalf("get after overwrite: %+v", m)
			}

			c.send(wire.Msg{Type: wire.CmdDel, ID: 5, Key: 7})
			expectAcks(t, c, 5)
			c.send(wire.Msg{Type: wire.CmdGet, ID: 6, Key: 7})
			if m := c.recv(); m.Found {
				t.Fatalf("get after delete: %+v", m)
			}

			c.send(wire.Msg{Type: wire.CmdDel, ID: 7, Key: 999})
			if ep := expectAcks(t, c, 7); ep == 0 {
				t.Fatal("failed delete acked with epoch 0")
			}
		})
	}
}

// TestBoundedUniverseRefusesKey: a key outside a bounded kind's universe
// (veb panics on one) is answered with an error frame, and the connection
// and the server go on serving.
func TestBoundedUniverseRefusesKey(t *testing.T) {
	_, addr := startServer(t, Config{Structure: "veb", KeySpace: 1 << 10, EpochLength: time.Millisecond})
	c := dial(t, addr)
	for id, typ := range []wire.Type{wire.CmdPut, wire.CmdGet, wire.CmdDel} {
		c.send(wire.Msg{Type: typ, ID: uint64(id + 1), Key: 1 << 10, Value: 1})
		if m := c.recv(); m.Type != wire.RespError || m.Code != wire.ECodeServer || m.ID != uint64(id+1) {
			t.Fatalf("%s of key 1<<10: %+v", typ, m)
		}
	}
	c.send(wire.Msg{Type: wire.CmdPut, ID: 9, Key: 1<<10 - 1, Value: 5})
	expectAcks(t, c, 9)
	c.send(wire.Msg{Type: wire.CmdGet, ID: 10, Key: 1<<10 - 1})
	if m := c.recv(); !m.Found || m.Value != 5 {
		t.Fatalf("get of the universe's last key: %+v", m)
	}
}

// TestPipelinedResponses: many requests written before any response is
// read; every response arrives, applied acks in request order.
func TestPipelinedResponses(t *testing.T) {
	_, addr := startServer(t, Config{KeySpace: 1 << 10, EpochLength: time.Millisecond})
	c := dial(t, addr)
	const n = 100
	for i := uint64(1); i <= n; i++ {
		if err := c.w.Write(&wire.Msg{Type: wire.CmdPut, ID: i, Key: i, Value: i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	appliedSeen := make(map[uint64]bool)
	durableSeen := make(map[uint64]bool)
	var lastApplied uint64
	for len(durableSeen) < n {
		m := c.recv()
		switch m.Type {
		case wire.RespApplied:
			if appliedSeen[m.ID] {
				t.Fatalf("duplicate applied ack %d", m.ID)
			}
			if m.ID != lastApplied+1 {
				t.Fatalf("applied acks out of request order: %d after %d", m.ID, lastApplied)
			}
			lastApplied = m.ID
			appliedSeen[m.ID] = true
		case wire.RespDurable:
			if !appliedSeen[m.ID] {
				t.Fatalf("durable ack %d before its applied ack", m.ID)
			}
			if durableSeen[m.ID] {
				t.Fatalf("duplicate durable ack %d", m.ID)
			}
			durableSeen[m.ID] = true
		default:
			t.Fatalf("unexpected frame %s", m.Type)
		}
	}
}

// TestAdversarialProtocol: malformed input tears down only the guilty
// connection, with a typed error frame when the stream allows one, and
// the server keeps serving everyone else.
func TestAdversarialProtocol(t *testing.T) {
	srv, addr := startServer(t, Config{KeySpace: 1 << 10, EpochLength: time.Millisecond})

	t.Run("garbage", func(t *testing.T) {
		c := dial(t, addr)
		c.nc.Write([]byte{0x00, 0x01, 0x02, 0x03, 0xff, 0xff, 0xff, 0xff})
		m, err := c.recvRaw()
		if err != nil {
			t.Fatalf("want error frame before close, got %v", err)
		}
		if m.Type != wire.RespError || m.Code != wire.ECodeProto {
			t.Fatalf("want proto error frame, got %+v", m)
		}
		if _, err := c.recvRaw(); err == nil {
			t.Fatal("connection not closed after protocol error")
		}
	})

	t.Run("one-garbage-byte", func(t *testing.T) {
		// One bad byte and the socket left open: the server must judge
		// the magic byte at once, not wait for a whole header.
		c := dial(t, addr)
		c.nc.Write([]byte{0x00})
		c.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		m, err := c.r.Read()
		if err != nil || m.Type != wire.RespError || m.Code != wire.ECodeProto {
			t.Fatalf("want proto error frame for one garbage byte, got %+v err %v", m, err)
		}
	})

	t.Run("oversized", func(t *testing.T) {
		c := dial(t, addr)
		hdr := []byte{wire.Magic, wire.Version, byte(wire.CmdPut), 0, 0xff, 0xff, 0xff, 0x7f}
		c.nc.Write(hdr)
		m, err := c.recvRaw()
		if err != nil || m.Type != wire.RespError {
			t.Fatalf("want error frame, got %+v err %v", m, err)
		}
	})

	t.Run("torn-frame", func(t *testing.T) {
		c := dial(t, addr)
		full, err := wire.Append(nil, &wire.Msg{Type: wire.CmdPut, ID: 1, Key: 2, Value: 3})
		if err != nil {
			t.Fatal(err)
		}
		c.nc.Write(full[:len(full)-3])
		c.nc.(*net.TCPConn).CloseWrite()
		m, err := c.recvRaw()
		if err != nil || m.Type != wire.RespError || m.Code != wire.ECodeProto {
			t.Fatalf("want proto error frame for torn frame, got %+v err %v", m, err)
		}
	})

	t.Run("retired-scan-type", func(t *testing.T) {
		// 0x04 was a scan request (id, start key, count): the type is
		// retired, so the frame is garbage and ends the connection, and
		// only that one.
		c := dial(t, addr)
		frame := []byte{wire.Magic, wire.Version, 0x04, 0, 20, 0, 0, 0}
		c.nc.Write(append(frame, make([]byte, 20)...))
		m, err := c.recvRaw()
		if err != nil || m.Type != wire.RespError || m.Code != wire.ECodeProto {
			t.Fatalf("want proto error frame for type 0x04, got %+v err %v", m, err)
		}
		if _, err := c.recvRaw(); err == nil {
			t.Fatal("connection not closed after a retired frame type")
		}
		other := dial(t, addr)
		other.send(wire.Msg{Type: wire.CmdPut, ID: 1, Key: 6, Value: 60})
		expectAcks(t, other, 1)
	})

	t.Run("response-to-server", func(t *testing.T) {
		c := dial(t, addr)
		c.send(wire.Msg{Type: wire.RespDurable, ID: 9, OK: true, Epoch: 1})
		m, err := c.recvRaw()
		if err != nil || m.Type != wire.RespError || m.Code != wire.ECodeOrder {
			t.Fatalf("want order error frame, got %+v err %v", m, err)
		}
	})

	// The server must still be fully functional for a well-behaved client.
	c := dial(t, addr)
	c.send(wire.Msg{Type: wire.CmdPut, ID: 1, Key: 5, Value: 50})
	expectAcks(t, c, 1)
	c.send(wire.Msg{Type: wire.CmdGet, ID: 2, Key: 5})
	if m := c.recv(); !m.Found || m.Value != 50 {
		t.Fatalf("server degraded after adversarial clients: %+v", m)
	}
	if st := srv.Stats(); st.ProtoErrors < 3 {
		t.Fatalf("proto errors %d, want >= 3", st.ProtoErrors)
	}
}

// TestDumpAtCapacity: Dump must work while every budgeted session is
// owned by a live connection (it falls back to a dedicated session
// instead of dereferencing a nil one).
func TestDumpAtCapacity(t *testing.T) {
	srv, addr := startServer(t, Config{KeySpace: 1 << 8, EpochLength: time.Millisecond, MaxSessions: 1})
	c := dial(t, addr)
	c.send(wire.Msg{Type: wire.CmdPut, ID: 1, Key: 4, Value: 40})
	expectAcks(t, c, 1)
	if m := srv.Dump(1 << 8); m[4] != 40 {
		t.Fatalf("dump at capacity: %v", m)
	}
	// A second dump reuses the fallback session (no new worker).
	if m := srv.Dump(1 << 8); m[4] != 40 {
		t.Fatalf("second dump at capacity: %v", m)
	}
}

// TestAbruptCloseRecyclesSession: a client that resets the connection
// mid-pipeline kills the writer first, while the reader may still be
// draining buffered requests on the session. The session must not reach
// a new connection until the reader is done (-race pins the old bug),
// and the half-open reader must be unblocked (or Close would hang on a
// leaked goroutine).
func TestAbruptCloseRecyclesSession(t *testing.T) {
	_, addr := startServer(t, Config{KeySpace: 1 << 10, EpochLength: time.Millisecond, MaxSessions: 1})
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(nc)
	for i := uint64(1); i <= 2000; i++ {
		if err := w.Write(&wire.Msg{Type: wire.CmdPut, ID: i, Key: i % 512, Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reset without reading a single ack: the server's writer dies on a
	// send error with a socketful of requests still queued for its reader.
	nc.(*net.TCPConn).SetLinger(0)
	nc.Close()

	// The lone session must come back and serve a fresh connection.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c := dial(t, addr)
		c.send(wire.Msg{Type: wire.CmdPut, ID: 1, Key: 9, Value: 90})
		m, err := c.recvRaw()
		if err == nil && m.Type == wire.RespError && m.Code == wire.ECodeServer {
			// Still at capacity: the old connection is mid-teardown.
			if time.Now().After(deadline) {
				t.Fatal("session never recycled after abrupt client close")
			}
			c.nc.Close()
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("fresh connection after abrupt close: %v", err)
		}
		if m.Type != wire.RespApplied || m.ID != 1 {
			t.Fatalf("want applied ack on recycled session, got %+v", m)
		}
		return
	}
}
