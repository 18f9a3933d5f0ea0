package wire

import "testing"

// loopReader is a peer that never stops sending: it serves frame over and
// over.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], l.frame[l.off:])
		n += c
		l.off = (l.off + c) % len(l.frame)
	}
	return n, nil
}

// Decoding the frames of the served hot path — a GET or PUT request, an
// applied or a durable ack — allocates nothing: the header and the payload
// are read into the Reader's own buffers.
func TestReadDoesNotAllocate(t *testing.T) {
	for _, m := range []Msg{
		{Type: CmdGet, ID: 1, Key: 7},
		{Type: CmdPut, ID: 2, Key: 7, Value: 9},
		{Type: RespApplied, ID: 3, OK: true, Epoch: 12},
		{Type: RespDurable, ID: 4, OK: true, Epoch: 12},
	} {
		frame, err := Append(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReader(&loopReader{frame: frame})
		if n := testing.AllocsPerRun(1000, func() {
			if got, err := r.Read(); err != nil || got != m {
				t.Fatalf("Read = %+v, %v, want %+v", got, err, m)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per Read, want 0", m.Type, n)
		}
	}
}
