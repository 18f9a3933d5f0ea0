// Package wire is the bdserve network protocol: a small pipelined
// RESP-like binary framing for the buffered-durable KV service.
//
// Every frame is an 8-byte header followed by a payload:
//
//	byte 0     magic (0xBD)
//	byte 1     protocol version (1)
//	byte 2     frame type
//	byte 3     flags (must be 0 in this version)
//	bytes 4-7  payload length, little-endian uint32 (≤ MaxPayload)
//
// All payload integers are little-endian. Requests carry a client-chosen
// 64-bit request ID that responses echo, so clients may pipeline
// arbitrarily and match responses out of order.
//
// The durability split is the point of the protocol: a write op gets an
// *applied* ack (RespApplied) as soon as its HTM transaction commits —
// memory speed, nothing fenced — and a *durable* ack (RespDurable) once
// the epoch it committed in has persisted (the group-commit piggyback on
// epoch advancement). Every write gets both acks; a client that wants
// synchronous durability waits for the second. Both acks carry the op's
// commit epoch, so clients can observe the buffered-durability window
// directly.
//
// Decoding is defensive by construction: every frame type has a fixed
// payload length (RespError is bounded), the header is validated before
// any payload is read, and every malformed input yields a typed
// *ProtocolError — never a panic and never an unbounded read. The
// conformance suite in conformance_test.go pins both the exact encoding
// (golden frames) and the failure behavior (torn / truncated / oversized
// / garbage inputs).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Framing constants.
const (
	Magic      = 0xBD
	Version    = 1
	HeaderSize = 8
	// MaxPayload bounds every frame's payload; the largest legal frame
	// (RespError with a full message) is far below it. Anything larger in
	// the header is rejected before a single payload byte is read.
	MaxPayload = 1 << 12
	// MaxErrText bounds the human-readable text of an error frame.
	MaxErrText = 256
)

// Type identifies a frame. Requests have the high bit clear, responses
// have it set.
type Type uint8

const (
	CmdGet   Type = 0x01 // id, key -> RespValue
	CmdPut   Type = 0x02 // id, key, value -> RespApplied / RespDurable
	CmdDel   Type = 0x03 // id, key -> RespApplied / RespDurable
	CmdStats Type = 0x05 // id -> RespStats

	RespValue   Type = 0x81 // id, found, value
	RespApplied Type = 0x82 // id, ok, commit epoch
	RespDurable Type = 0x83 // id, ok, commit epoch
	RespError   Type = 0x85 // id, code, text
	RespStats   Type = 0x86 // id, StatsSnap (fixed counter block)
)

func (t Type) String() string {
	switch t {
	case CmdGet:
		return "GET"
	case CmdPut:
		return "PUT"
	case CmdDel:
		return "DEL"
	case CmdStats:
		return "STATS"
	case RespValue:
		return "VALUE"
	case RespApplied:
		return "APPLIED"
	case RespDurable:
		return "DURABLE"
	case RespError:
		return "ERROR"
	case RespStats:
		return "STATSR"
	default:
		return fmt.Sprintf("Type(%#x)", uint8(t))
	}
}

// IsRequest reports whether t is a client-to-server frame type.
func (t Type) IsRequest() bool {
	switch t {
	case CmdGet, CmdPut, CmdDel, CmdStats:
		return true
	}
	return false
}

// Error codes carried by RespError frames.
const (
	ECodeProto  uint8 = 1 // malformed frame; the server closes the connection
	ECodeServer uint8 = 2 // internal server failure executing the op
	ECodeOrder  uint8 = 3 // a response-type frame arrived at the server
)

// AckFrameLen is the encoded size of a RespApplied or RespDurable frame.
const AckFrameLen = HeaderSize + 17 // id + ok + epoch

// payloadLen returns the exact payload length of a fixed-size frame
// type, or (min, -1) for the variable-length RespError.
func payloadLen(t Type) (n int, ok bool) {
	switch t {
	case CmdGet, CmdDel:
		return 16, true // id + key
	case CmdPut:
		return 24, true // id + key + value
	case CmdStats:
		return 8, true // id
	case RespValue:
		return 17, true // id + found + value
	case RespApplied, RespDurable:
		return AckFrameLen - HeaderSize, true
	case RespError:
		return -1, true // id + code + len + text (variable)
	case RespStats:
		return statsPayloadLen, true // id + the fixed counter block
	}
	return 0, false
}

const respErrorMinLen = 11 // id + code + text length

// StatsSnap is the compact binary server snapshot carried by RespStats:
// a fixed block of little-endian uint64 counters so pollers (cmd/bdtop,
// health checks) can sample a live server over its own protocol without
// HTTP. Field order is the wire order — append only.
type StatsSnap struct {
	GlobalEpoch     uint64 // active epoch
	PersistedEpoch  uint64 // durable watermark
	Advances        uint64 // epoch advances since start
	Backpressure    uint64 // advances that blocked on the flusher
	FlusherDepth    uint64 // closed epochs handed to the flusher (0/1)
	Conns           uint64 // connections ever accepted
	OpenConns       uint64 // connections currently open
	Requests        uint64 // frames dispatched
	WriteCommits    uint64 // puts/dels applied
	AppliedAcks     uint64 // applied acks sent
	DurableAcks     uint64 // durable acks sent
	ProtoErrors     uint64 // protocol errors (connection-fatal)
	Inflight        uint64 // requests decoded, reply not yet handed to the socket
	AckQueue        uint64 // writes applied, awaiting durable ack
	MaxAckLagEpochs uint64 // worst watermark-commit distance at ack
	OldestUnackedNS uint64 // age of the oldest write awaiting its durable ack
	TxCommits       uint64 // HTM commits
	AbortsConflict  uint64 // HTM conflict aborts
	AbortsCapacity  uint64 // HTM capacity aborts
	AbortsInjected  uint64 // injected (spurious + memtype) aborts
	AbortsOther     uint64 // explicit + persist-op aborts
	FlushedBlocks   uint64 // NVM blocks written back by epoch flushes
	SpansSampled    uint64 // request spans sampled
	SpansDropped    uint64 // span samples dropped on ring wrap
}

// numStatsFields is the wire field count of StatsSnap; statsFields and
// the struct must agree (pinned by a conformance test).
const numStatsFields = 24

const statsPayloadLen = 8 + 8*numStatsFields // id + counter block

// statsFields returns pointers to every counter in wire order.
func (s *StatsSnap) statsFields() [numStatsFields]*uint64 {
	return [numStatsFields]*uint64{
		&s.GlobalEpoch, &s.PersistedEpoch, &s.Advances, &s.Backpressure,
		&s.FlusherDepth, &s.Conns, &s.OpenConns, &s.Requests,
		&s.WriteCommits, &s.AppliedAcks, &s.DurableAcks, &s.ProtoErrors,
		&s.Inflight, &s.AckQueue, &s.MaxAckLagEpochs, &s.OldestUnackedNS,
		&s.TxCommits, &s.AbortsConflict, &s.AbortsCapacity, &s.AbortsInjected,
		&s.AbortsOther, &s.FlushedBlocks, &s.SpansSampled, &s.SpansDropped,
	}
}

// ProtocolError is the typed decode failure every malformed input maps
// to. The package-level sentinels classify the failure; concrete errors
// wrap a sentinel, so errors.Is(err, wire.ErrTruncated) etc. work.
type ProtocolError struct {
	Reason string
}

func (e *ProtocolError) Error() string { return "wire: " + e.Reason }

// Decode-failure sentinels.
var (
	ErrBadMagic    = &ProtocolError{Reason: "bad magic byte"}
	ErrBadVersion  = &ProtocolError{Reason: "unsupported protocol version"}
	ErrBadFlags    = &ProtocolError{Reason: "nonzero flags"}
	ErrUnknownType = &ProtocolError{Reason: "unknown frame type"}
	ErrBadLength   = &ProtocolError{Reason: "payload length does not match frame type"}
	ErrOversized   = &ProtocolError{Reason: "payload length exceeds MaxPayload"}
	ErrBadBool     = &ProtocolError{Reason: "non-canonical boolean byte"}
	ErrTruncated   = &ProtocolError{Reason: "connection closed mid-frame"}
)

// IsProtocol reports whether err is (or wraps) a ProtocolError — the
// "peer spoke garbage, close the connection" class, as opposed to a
// clean EOF or an I/O error.
func IsProtocol(err error) bool {
	var pe *ProtocolError
	return AsProtocol(err, &pe)
}

// AsProtocol is errors.As specialized to *ProtocolError without
// importing errors at every call site.
func AsProtocol(err error, target **ProtocolError) bool {
	for err != nil {
		if pe, ok := err.(*ProtocolError); ok {
			*target = pe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

type wrapped struct {
	sentinel *ProtocolError
	detail   string
}

func (w *wrapped) Error() string { return w.sentinel.Error() + ": " + w.detail }
func (w *wrapped) Unwrap() error { return w.sentinel }

func protoErr(s *ProtocolError, format string, args ...any) error {
	return &wrapped{sentinel: s, detail: fmt.Sprintf(format, args...)}
}

// Msg is the decoded form of any frame. Fields beyond Type and ID are
// meaningful per type:
//
//	CmdGet/CmdDel   Key
//	CmdPut          Key, Value
//	RespValue       Found, Value
//	RespApplied     OK (replaced/removed report), Epoch (commit epoch)
//	RespDurable     OK, Epoch (commit epoch, ≤ the durable watermark)
//	RespError       Code, Text
//	CmdStats        (ID only)
//	RespStats       Stats (the counter block)
type Msg struct {
	Type  Type
	ID    uint64
	Key   uint64
	Value uint64
	Found bool
	OK    bool
	Epoch uint64
	Code  uint8
	Text  string
	Stats *StatsSnap // RespStats only
}

// Append encodes m onto buf and returns the extended slice. Encoding a
// structurally invalid message (unknown type, oversized error text)
// returns an error and leaves buf untouched.
func Append(buf []byte, m *Msg) ([]byte, error) {
	var payload [24]byte
	var body []byte
	switch m.Type {
	case CmdGet, CmdDel:
		binary.LittleEndian.PutUint64(payload[0:], m.ID)
		binary.LittleEndian.PutUint64(payload[8:], m.Key)
		body = payload[:16]
	case CmdPut:
		binary.LittleEndian.PutUint64(payload[0:], m.ID)
		binary.LittleEndian.PutUint64(payload[8:], m.Key)
		binary.LittleEndian.PutUint64(payload[16:], m.Value)
		body = payload[:24]
	case RespValue:
		binary.LittleEndian.PutUint64(payload[0:], m.ID)
		payload[8] = b2u(m.Found)
		binary.LittleEndian.PutUint64(payload[9:], m.Value)
		body = payload[:17]
	case RespApplied, RespDurable:
		return AppendAck(buf, m.Type, m.ID, m.OK, m.Epoch), nil
	case CmdStats:
		binary.LittleEndian.PutUint64(payload[0:], m.ID)
		body = payload[:8]
	case RespStats:
		if m.Stats == nil {
			return buf, fmt.Errorf("wire: RespStats without a stats block")
		}
		body = make([]byte, statsPayloadLen)
		binary.LittleEndian.PutUint64(body[0:], m.ID)
		for i, f := range m.Stats.statsFields() {
			binary.LittleEndian.PutUint64(body[8+8*i:], *f)
		}
	case RespError:
		if len(m.Text) > MaxErrText {
			return buf, fmt.Errorf("wire: error text %d bytes exceeds %d", len(m.Text), MaxErrText)
		}
		body = make([]byte, respErrorMinLen+len(m.Text))
		binary.LittleEndian.PutUint64(body[0:], m.ID)
		body[8] = m.Code
		binary.LittleEndian.PutUint16(body[9:], uint16(len(m.Text)))
		copy(body[respErrorMinLen:], m.Text)
	default:
		return buf, fmt.Errorf("wire: cannot encode unknown frame type %#x", uint8(m.Type))
	}
	hdr := [HeaderSize]byte{Magic, Version, uint8(m.Type), 0}
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(body)))
	buf = append(buf, hdr[:]...)
	return append(buf, body...), nil
}

// AppendAck encodes a RespApplied or RespDurable frame onto buf without
// building a Msg: the one encoding of the ack frame, which Append uses too.
func AppendAck(buf []byte, t Type, id uint64, ok bool, epoch uint64) []byte {
	buf = append(buf, Magic, Version, uint8(t), 0, AckFrameLen-HeaderSize, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = append(buf, b2u(ok))
	return binary.LittleEndian.AppendUint64(buf, epoch)
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Reader decodes frames from a stream. It is not safe for concurrent
// use; each connection side owns one Reader.
type Reader struct {
	br *bufio.Reader
}

// NewReader wraps r for frame decoding.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<14)}
}

// Buffered reports how many bytes already read from the stream wait to
// be decoded. When it is 0, the next Read blocks on the stream.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// Read decodes the next frame. A clean close at a frame boundary
// returns io.EOF; a close mid-frame returns ErrTruncated; any malformed
// header or payload returns a *ProtocolError. After a non-EOF error the
// stream position is undefined and the connection should be closed.
//
// The frame is decoded in place: the header is peeked and validated,
// then the whole frame is peeked, decoded and discarded, so nothing is
// copied out of the stream's buffer.
func (r *Reader) Read() (Msg, error) {
	// The magic byte is judged on its own first, so a peer that sends a
	// garbage byte and waits hears of it at once.
	hdr, err := r.br.Peek(1)
	if err != nil {
		if err == io.EOF {
			return Msg{}, io.EOF
		}
		return Msg{}, protoErr(ErrTruncated, "reading header: %v", err)
	}
	if hdr[0] != Magic {
		return Msg{}, protoErr(ErrBadMagic, "%#x", hdr[0])
	}
	if hdr, err = r.br.Peek(HeaderSize); err != nil {
		return Msg{}, protoErr(ErrTruncated, "reading header: %v", err)
	}
	if hdr[1] != Version {
		return Msg{}, protoErr(ErrBadVersion, "%d", hdr[1])
	}
	if hdr[3] != 0 {
		return Msg{}, protoErr(ErrBadFlags, "%#x", hdr[3])
	}
	t := Type(hdr[2])
	want, known := payloadLen(t)
	if !known {
		return Msg{}, protoErr(ErrUnknownType, "%#x", hdr[2])
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxPayload {
		return Msg{}, protoErr(ErrOversized, "%d > %d", n, MaxPayload)
	}
	if want >= 0 && int(n) != want {
		return Msg{}, protoErr(ErrBadLength, "type %s: %d, want %d", t, n, want)
	}
	if want < 0 && int(n) < respErrorMinLen {
		return Msg{}, protoErr(ErrBadLength, "type %s: %d < minimum %d", t, n, respErrorMinLen)
	}
	frame, err := r.br.Peek(HeaderSize + int(n))
	if err != nil {
		return Msg{}, protoErr(ErrTruncated, "reading %d-byte payload: %v", n, err)
	}
	p := frame[HeaderSize:]
	m := Msg{Type: t, ID: binary.LittleEndian.Uint64(p[0:])}
	switch t {
	case CmdGet, CmdDel:
		m.Key = binary.LittleEndian.Uint64(p[8:])
	case CmdPut:
		m.Key = binary.LittleEndian.Uint64(p[8:])
		m.Value = binary.LittleEndian.Uint64(p[16:])
	case RespValue:
		// Booleans are exactly 0 or 1, so decode∘encode is the identity
		// and a frame has one canonical byte representation.
		if p[8] > 1 {
			return Msg{}, protoErr(ErrBadBool, "found byte %#x", p[8])
		}
		m.Found = p[8] == 1
		m.Value = binary.LittleEndian.Uint64(p[9:])
	case RespApplied, RespDurable:
		if p[8] > 1 {
			return Msg{}, protoErr(ErrBadBool, "ok byte %#x", p[8])
		}
		m.OK = p[8] == 1
		m.Epoch = binary.LittleEndian.Uint64(p[9:])
	case RespStats:
		m.Stats = &StatsSnap{}
		for i, f := range m.Stats.statsFields() {
			*f = binary.LittleEndian.Uint64(p[8+8*i:])
		}
	case RespError:
		m.Code = p[8]
		tl := int(binary.LittleEndian.Uint16(p[9:]))
		if respErrorMinLen+tl != int(n) {
			return Msg{}, protoErr(ErrBadLength, "error text length %d inside %d-byte payload", tl, n)
		}
		m.Text = string(p[respErrorMinLen : respErrorMinLen+tl])
	}
	r.br.Discard(len(frame))
	return m, nil
}

// Writer encodes frames onto a buffered stream, for clients. It is not
// safe for concurrent use; each connection side owns one Writer and calls
// Flush at batch boundaries. (The server encodes its replies with Append
// into its own per-connection buffer.)
type Writer struct {
	bw      *bufio.Writer
	scratch []byte
}

// NewWriter wraps w for frame encoding.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<14), scratch: make([]byte, 0, 64)}
}

// Write encodes one frame into the buffer (no flush).
func (w *Writer) Write(m *Msg) error {
	b, err := Append(w.scratch[:0], m)
	if err != nil {
		return err
	}
	_, err = w.bw.Write(b)
	return err
}

// Flush pushes buffered frames to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }
