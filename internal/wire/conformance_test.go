package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goldenFrames pins the exact byte encoding of every frame type. If any
// of these change, the wire protocol changed and the version byte must
// be bumped.
var goldenFrames = []struct {
	name string
	msg  Msg
	hex  string
}{
	{
		name: "get",
		msg:  Msg{Type: CmdGet, ID: 1, Key: 0x1122334455667788},
		hex:  "bd010100" + "10000000" + "0100000000000000" + "8877665544332211",
	},
	{
		name: "put",
		msg:  Msg{Type: CmdPut, ID: 2, Key: 7, Value: 0xdeadbeef},
		hex:  "bd010200" + "18000000" + "0200000000000000" + "0700000000000000" + "efbeadde00000000",
	},
	{
		name: "del",
		msg:  Msg{Type: CmdDel, ID: 3, Key: 9},
		hex:  "bd010300" + "10000000" + "0300000000000000" + "0900000000000000",
	},
	{
		name: "value-found",
		msg:  Msg{Type: RespValue, ID: 5, Found: true, Value: 42},
		hex:  "bd018100" + "11000000" + "0500000000000000" + "01" + "2a00000000000000",
	},
	{
		name: "value-missing",
		msg:  Msg{Type: RespValue, ID: 6},
		hex:  "bd018100" + "11000000" + "0600000000000000" + "00" + "0000000000000000",
	},
	{
		name: "applied",
		msg:  Msg{Type: RespApplied, ID: 7, OK: true, Epoch: 12},
		hex:  "bd018200" + "11000000" + "0700000000000000" + "01" + "0c00000000000000",
	},
	{
		name: "durable",
		msg:  Msg{Type: RespDurable, ID: 8, OK: false, Epoch: 13},
		hex:  "bd018300" + "11000000" + "0800000000000000" + "00" + "0d00000000000000",
	},
	{
		name: "error",
		msg:  Msg{Type: RespError, ID: 10, Code: ECodeProto, Text: "bad"},
		hex:  "bd018500" + "0e000000" + "0a00000000000000" + "01" + "0300" + "626164",
	},
	{
		name: "error-empty-text",
		msg:  Msg{Type: RespError, ID: 11, Code: ECodeServer},
		hex:  "bd018500" + "0b000000" + "0b00000000000000" + "02" + "0000",
	},
	{
		name: "stats",
		msg:  Msg{Type: CmdStats, ID: 12},
		hex:  "bd010500" + "08000000" + "0c00000000000000",
	},
	{
		// Every field carries its 1-based wire position as its value, so
		// a reordering of statsFields shows up as a mismatch here.
		name: "stats-resp",
		msg: Msg{Type: RespStats, ID: 13, Stats: &StatsSnap{
			GlobalEpoch: 1, PersistedEpoch: 2, Advances: 3, Backpressure: 4,
			FlusherDepth: 5, Conns: 6, OpenConns: 7, Requests: 8,
			WriteCommits: 9, AppliedAcks: 10, DurableAcks: 11, ProtoErrors: 12,
			Inflight: 13, AckQueue: 14, MaxAckLagEpochs: 15, OldestUnackedNS: 16,
			TxCommits: 17, AbortsConflict: 18, AbortsCapacity: 19, AbortsInjected: 20,
			AbortsOther: 21, FlushedBlocks: 22, SpansSampled: 23, SpansDropped: 24,
		}},
		hex: "bd018600" + "c8000000" + "0d00000000000000" +
			"0100000000000000" + "0200000000000000" + "0300000000000000" + "0400000000000000" +
			"0500000000000000" + "0600000000000000" + "0700000000000000" + "0800000000000000" +
			"0900000000000000" + "0a00000000000000" + "0b00000000000000" + "0c00000000000000" +
			"0d00000000000000" + "0e00000000000000" + "0f00000000000000" + "1000000000000000" +
			"1100000000000000" + "1200000000000000" + "1300000000000000" + "1400000000000000" +
			"1500000000000000" + "1600000000000000" + "1700000000000000" + "1800000000000000",
	},
}

// msgEqual compares two Msgs, following the Stats pointer by value (the
// decoder always allocates a fresh snapshot).
func msgEqual(a, b Msg) bool {
	as, bs := a.Stats, b.Stats
	a.Stats, b.Stats = nil, nil
	if a != b {
		return false
	}
	if (as == nil) != (bs == nil) {
		return false
	}
	return as == nil || *as == *bs
}

func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatalf("bad golden hex: %v", err)
			}
			got, err := Append(nil, &g.msg)
			if err != nil {
				t.Fatalf("Append: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding mismatch:\n got %x\nwant %x", got, want)
			}
			r := NewReader(bytes.NewReader(want))
			dec, err := r.Read()
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if !msgEqual(dec, g.msg) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", dec, g.msg)
			}
			if _, err := r.Read(); err != io.EOF {
				t.Fatalf("want clean io.EOF after frame, got %v", err)
			}
		})
	}
}

func TestPipelinedStream(t *testing.T) {
	var buf []byte
	var err error
	for _, g := range goldenFrames {
		buf, err = Append(buf, &g.msg)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(bytes.NewReader(buf))
	for i, g := range goldenFrames {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !msgEqual(m, g.msg) {
			t.Fatalf("frame %d mismatch: got %+v want %+v", i, m, g.msg)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestWriterMatchesAppend(t *testing.T) {
	var direct []byte
	var err error
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for _, g := range goldenFrames {
		direct, err = Append(direct, &g.msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(&g.msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, stream.Bytes()) {
		t.Fatal("Writer output differs from Append output")
	}
}

// TestTruncatedFrames feeds every strict prefix of every golden frame:
// byte 0 must yield io.EOF (clean close at a boundary), every other
// prefix must yield ErrTruncated. Never a panic, never a hang.
func TestTruncatedFrames(t *testing.T) {
	for _, g := range goldenFrames {
		full, _ := hex.DecodeString(g.hex)
		for cut := 0; cut < len(full); cut++ {
			r := NewReader(bytes.NewReader(full[:cut]))
			_, err := r.Read()
			if cut == 0 {
				if err != io.EOF {
					t.Fatalf("%s cut=0: want io.EOF, got %v", g.name, err)
				}
				continue
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s cut=%d: want ErrTruncated, got %v", g.name, cut, err)
			}
		}
	}
}

func mutateHeader(t *testing.T, base string, idx int, val byte) []byte {
	t.Helper()
	b, err := hex.DecodeString(base)
	if err != nil {
		t.Fatal(err)
	}
	b[idx] = val
	return b
}

// retiredFrames are frames of types the protocol no longer has, at their
// old payload lengths: 0x04 was a scan request (id, start key, count) and
// 0x84 its reply (id, entry count). Each must decode to ErrUnknownType.
var retiredFrames = []struct{ name, hex string }{
	{"retired-scan", "bd010400" + "14000000" + "0400000000000000" + "6400000000000000" + "10000000"},
	{"retired-scan-resp", "bd018400" + "0c000000" + "0900000000000000" + "00000000"},
}

func TestMalformedHeaders(t *testing.T) {
	base := goldenFrames[0].hex
	cases := []struct {
		name string
		raw  []byte
		want *ProtocolError
	}{
		{"bad-magic", mutateHeader(t, base, 0, 0x00), ErrBadMagic},
		{"bad-magic-resp", mutateHeader(t, base, 0, 0x42), ErrBadMagic},
		{"bad-version", mutateHeader(t, base, 1, 2), ErrBadVersion},
		{"bad-version-zero", mutateHeader(t, base, 1, 0), ErrBadVersion},
		{"bad-flags", mutateHeader(t, base, 3, 1), ErrBadFlags},
		{"unknown-type", mutateHeader(t, base, 2, 0x7f), ErrUnknownType},
		{"unknown-type-resp", mutateHeader(t, base, 2, 0xff), ErrUnknownType},
		{"short-length", mutateHeader(t, base, 4, 0x0f), ErrBadLength},
		{"long-length", mutateHeader(t, base, 4, 0x11), ErrBadLength},
		{"oversized", mutateHeader(t, base, 7, 0xff), ErrOversized},
	}
	for _, r := range retiredFrames {
		cases = append(cases, struct {
			name string
			raw  []byte
			want *ProtocolError
		}{r.name, mutateHeader(t, r.hex, 0, Magic), ErrUnknownType})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(c.raw))
			_, err := r.Read()
			if !errors.Is(err, c.want) {
				t.Fatalf("want %v, got %v", c.want, err)
			}
			if !IsProtocol(err) {
				t.Fatalf("error %v not classified as protocol error", err)
			}
		})
	}
}

func TestErrorFrameInnerLengthMismatch(t *testing.T) {
	// An error frame whose inner text length disagrees with the payload
	// length must be rejected even though the header is well-formed.
	m := Msg{Type: RespError, ID: 1, Code: ECodeProto, Text: "xyz"}
	b, err := Append(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	b[HeaderSize+9]++ // bump inner text length
	r := NewReader(bytes.NewReader(b))
	if _, err := r.Read(); !errors.Is(err, ErrBadLength) {
		t.Fatalf("want ErrBadLength, got %v", err)
	}
}

func TestNonCanonicalBoolRejected(t *testing.T) {
	// Boolean bytes other than 0/1 decode to a frame that would not
	// re-encode identically; the decoder must reject them (found by
	// FuzzDecode's re-encode-identity check; the crasher is in the
	// corpus).
	for _, typ := range []Type{RespValue, RespApplied, RespDurable} {
		m := Msg{Type: typ, ID: 7, Found: true, OK: true, Value: 9, Epoch: 9}
		b, err := Append(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		b[HeaderSize+8] = 0x30 // the boolean byte
		r := NewReader(bytes.NewReader(b))
		if _, err := r.Read(); !errors.Is(err, ErrBadBool) {
			t.Fatalf("%s: want ErrBadBool, got %v", typ, err)
		}
	}
}

func TestOversizedErrorTextRejectedOnEncode(t *testing.T) {
	m := Msg{Type: RespError, ID: 1, Code: ECodeProto, Text: strings.Repeat("x", MaxErrText+1)}
	if _, err := Append(nil, &m); err == nil {
		t.Fatal("want encode error for oversized error text")
	}
	if _, err := Append(nil, &Msg{Type: Type(0x99)}); err == nil {
		t.Fatal("want encode error for unknown type")
	}
}

// TestGarbageStreams decodes seeded random byte streams: every outcome
// must be a typed protocol error, ErrTruncated, or io.EOF — never a
// panic. Valid-looking frames that happen to parse are fine; the reader
// just keeps going until the stream errors or drains.
func TestGarbageStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(0xbd07))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(512)
		raw := make([]byte, n)
		rng.Read(raw)
		// Half the rounds: plant a plausible header so the length/type
		// validation paths get exercised, not just the magic check.
		if round%2 == 0 && n >= HeaderSize {
			raw[0] = Magic
			raw[1] = Version
			raw[3] = 0
		}
		r := NewReader(bytes.NewReader(raw))
		for {
			_, err := r.Read()
			if err == nil {
				continue
			}
			if err == io.EOF || errors.Is(err, ErrTruncated) || IsProtocol(err) {
				break
			}
			t.Fatalf("round %d: untyped error %v", round, err)
		}
	}
}

// TestGarbageOverPipe runs the adversarial feed over a real net.Pipe
// with a reader goroutine, pinning "no hang": the reader must classify
// the garbage and return promptly once the writer closes its end.
func TestGarbageOverPipe(t *testing.T) {
	rng := rand.New(rand.NewSource(0x6a5b))
	for round := 0; round < 20; round++ {
		client, server := net.Pipe()
		done := make(chan error, 1)
		go func() {
			r := NewReader(server)
			for {
				_, err := r.Read()
				if err != nil {
					server.Close()
					done <- err
					return
				}
			}
		}()
		raw := make([]byte, 64+rng.Intn(256))
		rng.Read(raw)
		client.SetDeadline(time.Now().Add(5 * time.Second))
		client.Write(raw) // may error once the reader closes; fine
		client.Close()
		select {
		case err := <-done:
			if err != io.EOF && !errors.Is(err, ErrTruncated) && !IsProtocol(err) {
				t.Fatalf("round %d: untyped error %v", round, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: reader hung on garbage input", round)
		}
		client.Close()
		server.Close()
	}
}

// FuzzDecode is the native fuzz target backing the conformance claim:
// arbitrary bytes never panic the decoder, and anything that decodes
// must re-encode to the identical bytes (canonical encoding).
func FuzzDecode(f *testing.F) {
	for _, g := range goldenFrames {
		b, _ := hex.DecodeString(g.hex)
		f.Add(b)
	}
	for _, r := range retiredFrames {
		b, _ := hex.DecodeString(r.hex)
		f.Add(b)
	}
	f.Add([]byte{Magic, Version, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		off := 0
		for {
			m, err := r.Read()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTruncated) && !IsProtocol(err) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			re, err := Append(nil, &m)
			if err != nil {
				t.Fatalf("decoded message failed to re-encode: %+v: %v", m, err)
			}
			end := off + len(re)
			if end > len(data) || !bytes.Equal(re, data[off:end]) {
				t.Fatalf("re-encode mismatch at offset %d", off)
			}
			off = end
		}
	})
}

// TestStatsSnapPinned pins the snapshot layout: every StatsSnap struct
// field must appear in statsFields (the wire order), and the payload
// length must follow. Adding a field without threading it through the
// encoder is a silent-zero bug this catches at compile-review time.
func TestStatsSnapPinned(t *testing.T) {
	if n := reflect.TypeOf(StatsSnap{}).NumField(); n != numStatsFields {
		t.Fatalf("StatsSnap has %d fields, statsFields carries %d: new fields must be added to the wire order (and the version considered)", n, numStatsFields)
	}
	if want := 8 + 8*numStatsFields; statsPayloadLen != want {
		t.Fatalf("statsPayloadLen = %d, want %d", statsPayloadLen, want)
	}
	// Distinct sentinel per field: a swapped or skipped pointer in
	// statsFields shows up as a round-trip mismatch.
	var s StatsSnap
	fields := s.statsFields()
	for i, p := range fields {
		*p = uint64(i + 1)
	}
	rv := reflect.ValueOf(s)
	for i := 0; i < rv.NumField(); i++ {
		if got := rv.Field(i).Uint(); got != uint64(i+1) {
			t.Fatalf("struct field %d (%s) = %d after statsFields fill; wire order does not match struct order", i, rv.Type().Field(i).Name, got)
		}
	}
}

// TestStatsNilPayloadRejected: encoding a RespStats without a snapshot
// is a programming error, not a zero-filled frame.
func TestStatsNilPayloadRejected(t *testing.T) {
	if _, err := Append(nil, &Msg{Type: RespStats, ID: 1}); err == nil {
		t.Fatal("Append(RespStats with nil Stats) succeeded, want error")
	}
}

// TestShortStreamBadMagic: a stream too short to hold a header is judged
// by its first byte before it is called truncated, so one garbage byte
// reads as bad magic and one magic byte as a torn header.
func TestShortStreamBadMagic(t *testing.T) {
	for _, tc := range []struct {
		in   []byte
		want error
	}{
		{[]byte{0x00}, ErrBadMagic},
		{[]byte{0x42, Version}, ErrBadMagic},
		{[]byte{Magic}, ErrTruncated},
		{[]byte{Magic, Version, byte(CmdGet)}, ErrTruncated},
	} {
		if _, err := NewReader(bytes.NewReader(tc.in)).Read(); !errors.Is(err, tc.want) {
			t.Errorf("Read(% x) = %v, want %v", tc.in, err, tc.want)
		}
	}
}

// TestAckFrameLen: the applied and durable frames encode to AckFrameLen,
// the size the server reserves for each durable ack it owes.
func TestAckFrameLen(t *testing.T) {
	for _, typ := range []Type{RespApplied, RespDurable} {
		b, err := Append(nil, &Msg{Type: typ, ID: 1, OK: true, Epoch: 2})
		if err != nil || len(b) != AckFrameLen {
			t.Errorf("Append(%s) = %d bytes, %v; want %d", typ, len(b), err, AckFrameLen)
		}
	}
}
