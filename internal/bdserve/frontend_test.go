package bdserve

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"bdhtm/internal/wire"
)

// stallingClient pipelines PUTs on nc and never reads a reply, until a
// write fails.
func stallingClient(nc net.Conn) error {
	w := wire.NewWriter(nc)
	for id := uint64(1); ; id++ {
		if err := w.Write(&wire.Msg{Type: wire.CmdPut, ID: id, Key: id % 512, Value: id}); err != nil {
			return err
		}
		if id%64 == 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
}

// waitConn waits for the server to accept its one connection and
// returns it.
func waitConn(t *testing.T, srv *Server) *conn {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		for c := range srv.conns {
			srv.mu.Unlock()
			return c
		}
		srv.mu.Unlock()
	}
	t.Fatal("the server never accepted the connection")
	return nil
}

// TestSlowReaderIsBounded: a client that pipelines writes and does not
// read holds at most outBound unsent reply bytes on the server, because
// the connection's reader stops executing (and so reading) once its next
// reply would not fit. The client stalls the server four times, reading
// replies between stalls until the server runs again, since which of the
// server's two goroutines a stall catches in a socket write varies.
// Another connection keeps being served meanwhile, and closing the
// stalled client recycles its session and drains the gauges.
func TestSlowReaderIsBounded(t *testing.T) {
	srv, addr := startServer(t, Config{KeySpace: 1 << 10, EpochLength: time.Millisecond, MaxSessions: 2})
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Fixed socket buffers, so a stalled write stays stuck until the
	// client reads: a small send buffer on the server's side, so the
	// server's own bound is what stops it, and receive buffers many
	// loopback segments large, so a reader that drains its socket
	// reopens the window at once rather than at the sender's next
	// zero-window probe.
	nc.(*net.TCPConn).SetReadBuffer(256 << 10)
	sc := waitConn(t, srv)
	sc.nc.(*net.TCPConn).SetWriteBuffer(16 << 10)
	sc.nc.(*net.TCPConn).SetReadBuffer(256 << 10)
	stalled := make(chan error, 1)
	go func() { stalled <- stallingClient(nc) }()
	unsent := func() (n, sending int) {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return len(sc.out) + sc.sending, sc.sending
	}
	stalledAt := int64(-1) // the request count the last stall held at
	deadline := time.Now().Add(60 * time.Second)
	for round := 0; round < 4; {
		// The server has stopped executing (and reading) requests once
		// its request count holds still for 200 ms with a write stuck on
		// the socket.
		for last, still := int64(-1), 0; still < 20; {
			if time.Now().After(deadline) {
				t.Fatal("the server never stopped reading a client that does not read")
			}
			time.Sleep(10 * time.Millisecond)
			n, sending := unsent()
			if n > outBound {
				t.Fatalf("connection holds %d unsent reply bytes, bound %d", n, outBound)
			}
			if r := srv.Stats().Requests; r != last {
				last, still = r, 0
			} else if sending > 0 {
				still++
			}
		}
		stalledAt = srv.Stats().Requests
		// The write stays stuck, and the unsent bytes stay within the
		// bound while durable acks keep being released into the buffer.
		// A stall can still end: the kernel may announce receive room
		// only at its next zero-window probe, which can come later than
		// 200 ms. Then wait for the next stall.
		resumed := false
		for range 10 {
			n, sending := unsent()
			if n > outBound {
				t.Fatalf("stalled connection holds %d unsent reply bytes, bound %d", n, outBound)
			}
			if sending == 0 {
				resumed = true
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if resumed {
			continue
		}
		if round < 3 {
			// Read replies until the server executes requests again. The
			// kernel announces a reopened receive window only once a
			// loopback segment (64 KiB) of it is free, and the stuck batch
			// can be as large, so read 128 KiB at a time.
			buf := make([]byte, 128<<10)
			nc.SetReadDeadline(time.Now().Add(10 * time.Second))
			for srv.Stats().Requests == stalledAt {
				if _, err := io.ReadFull(nc, buf); err != nil {
					t.Fatalf("reading replies between stalls: %v", err)
				}
				for wait := time.Now().Add(300 * time.Millisecond); srv.Stats().Requests == stalledAt && time.Now().Before(wait); {
					time.Sleep(time.Millisecond)
				}
			}
		}
		round++
	}

	// A second connection is served as usual.
	c := dial(t, addr)
	for id := uint64(1); id <= 20; id++ {
		start := time.Now()
		c.send(wire.Msg{Type: wire.CmdPut, ID: 2 * id, Key: 600 + id, Value: id})
		expectAcks(t, c, 2*id)
		c.send(wire.Msg{Type: wire.CmdGet, ID: 2*id + 1, Key: 600 + id})
		if m := c.recv(); m.Type != wire.RespValue || !m.Found || m.Value != id {
			t.Fatalf("get beside a stalled connection: %+v", m)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("round trips beside a stalled connection took %v", d)
		}
	}

	// Closing the stalled client recycles its session (MaxSessions is 2,
	// so a third connection is served only then) and drains the gauges.
	nc.Close()
	if err := <-stalled; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("stalling client: %v", err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		if st.OpenConns == 1 && st.Inflight == 0 && st.AckQueue == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges after closing the stalled client: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	c3 := dial(t, addr)
	c3.send(wire.Msg{Type: wire.CmdPut, ID: 1, Key: 9, Value: 90})
	expectAcks(t, c3, 1)
}

// TestAppliedBeforeDurable: a write's pending durable ack is queued in the
// critical section that appends its applied frame, so no drain can send
// the durable ack first. One connection pipelines 10 000 PUTs while
// another goroutine advances the epoch in a tight loop, so watermark wakes
// land at every point of the reply path. The client pauses its reads now
// and then, and both socket buffers are small, so the server's reply
// buffer fills and its reader waits for room while the watermark moves.
// Every ID's applied ack must arrive before its durable ack.
func TestAppliedBeforeDurable(t *testing.T) {
	srv, addr := startServer(t, Config{KeySpace: 1 << 12, Manual: true})
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				srv.System().AdvanceOnce()
			}
		}
	}()
	defer func() { close(stop); <-stopped }()

	const n = 10000
	c := dial(t, addr)
	c.nc.(*net.TCPConn).SetReadBuffer(128 << 10)
	waitConn(t, srv).nc.(*net.TCPConn).SetWriteBuffer(32 << 10)
	sent := make(chan error, 1)
	go func() {
		for id := uint64(1); id <= n; id++ {
			if err := c.w.Write(&wire.Msg{Type: wire.CmdPut, ID: id, Key: id % (1 << 12), Value: id}); err != nil {
				sent <- err
				return
			}
			if id%64 == 0 {
				if err := c.w.Flush(); err != nil {
					sent <- err
					return
				}
			}
		}
		sent <- c.w.Flush()
	}()
	applied := make([]bool, n+1)
	for frames, durable := 0, 0; durable < n; frames++ {
		if frames%500 == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		m := c.recv()
		if m.ID == 0 || m.ID > n {
			t.Fatalf("reply for unknown id: %+v", m)
		}
		switch m.Type {
		case wire.RespApplied:
			if applied[m.ID] {
				t.Fatalf("duplicate applied ack %d", m.ID)
			}
			applied[m.ID] = true
		case wire.RespDurable:
			if !applied[m.ID] {
				t.Fatalf("durable ack %d before its applied ack (after %d durable acks)", m.ID, durable)
			}
			durable++
		default:
			t.Fatalf("unexpected frame %s", m.Type)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}
