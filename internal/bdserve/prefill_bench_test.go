package bdserve

import (
	"fmt"
	"net"
	"testing"
	"time"

	"bdhtm/internal/wire"
)

// BenchmarkPipelinedPrefill is the service layer's set-up probe: one
// loopback connection fills 2^16 keys with PUTs, 256 in flight (a PUT's
// token returns with its applied ack), then waits for every durable ack.
// One op is one whole prefill on a fresh server; ns/put is its time per
// PUT.
func BenchmarkPipelinedPrefill(b *testing.B) {
	const puts, window = 1 << 16, 256
	b.ReportAllocs()
	for range b.N {
		if err := pipelinedPrefill(puts, window); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*puts), "ns/put")
}

func pipelinedPrefill(puts, window int) error {
	srv := New(Config{KeySpace: uint64(2 * puts), EpochLength: 2 * time.Millisecond})
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		return err
	}
	defer nc.Close()
	tokens := make(chan struct{}, window)
	for range window {
		tokens <- struct{}{}
	}
	done := make(chan error, 1)
	go func() {
		r := wire.NewReader(nc)
		for durable := 0; durable < puts; {
			m, err := r.Read()
			if err != nil {
				done <- err
				return
			}
			switch m.Type {
			case wire.RespApplied:
				tokens <- struct{}{}
			case wire.RespDurable:
				durable++
			default:
				done <- fmt.Errorf("unexpected %s frame", m.Type)
				return
			}
		}
		done <- nil
	}()
	w := wire.NewWriter(nc)
	for k := range uint64(puts) {
		select {
		case <-tokens:
		default:
			if err := w.Flush(); err != nil {
				return err
			}
			select {
			case <-tokens:
			case err := <-done:
				return fmt.Errorf("connection ended with PUTs to send: %v", err)
			}
		}
		if err := w.Write(&wire.Msg{Type: wire.CmdPut, ID: k + 1, Key: k, Value: k}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return <-done
}
