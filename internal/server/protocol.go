// Package server exposes an AFRAID store as a concurrent network block
// service: a length-prefixed binary protocol over TCP with request IDs
// for out-of-order completion, per-connection handler goroutines that
// outlive their request calling into the store's stripe-lock pool,
// per-request deadlines, backpressure, graceful drain, and a
// self-describing STAT snapshot of every layer's counters. Every
// request frame is one store call and one reply.
// The matching Client speaks the same protocol.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"afraid/internal/bufpool"
)

// Handshake: the client opens with Magic; the server answers with
// Magic, the store capacity (u64), and the frame payload limit (u32).
// Everything on the wire is big-endian.
const Magic = "AFRDBLK1"

// handshakeReplyLen is len(Magic) + capacity + maxPayload.
const handshakeReplyLen = len(Magic) + 8 + 4

// Op identifies a request operation.
type Op uint8

// Request operations.
const (
	// OpRead returns Length bytes starting at Off.
	OpRead Op = 1
	// OpWrite stores Data at Off, in one store call of its own.
	OpWrite Op = 2
	// OpFlush makes the whole array redundant (parity point).
	OpFlush Op = 3
	// OpStat returns an encoded Stat snapshot; Off and Length are unused.
	OpStat Op = 4
	// OpScrub makes the stripes covering [Off, Off+Length) redundant.
	OpScrub Op = 5
)

func (o Op) valid() bool { return o >= OpRead && o <= OpScrub }

// String returns the op mnemonic.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpFlush:
		return "FLUSH"
	case OpStat:
		return "STAT"
	case OpScrub:
		return "SCRUB"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Status is a response disposition.
type Status uint8

// Response statuses.
const (
	// StatusOK means the operation completed; READ/STAT carry data.
	StatusOK Status = 0
	// StatusBusy means the server's in-flight window is full; retry.
	StatusBusy Status = 1
	// StatusBadRequest means the frame was well-formed but the request
	// invalid (range outside capacity, unknown op).
	StatusBadRequest Status = 2
	// StatusIO is a store or device error; the payload holds a message.
	StatusIO Status = 3
	// StatusDataLoss marks reads of bytes lost in the AFRAID exposure
	// window (failed disk in an unredundant stripe).
	StatusDataLoss Status = 4
	// StatusTimeout means the per-request deadline expired.
	StatusTimeout Status = 5
	// StatusShutdown means the server is draining and rejected the
	// request.
	StatusShutdown Status = 6
)

// String returns the status mnemonic.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusBusy:
		return "ERR_BUSY"
	case StatusBadRequest:
		return "ERR_BAD_REQUEST"
	case StatusIO:
		return "ERR_IO"
	case StatusDataLoss:
		return "ERR_DATA_LOSS"
	case StatusTimeout:
		return "ERR_TIMEOUT"
	case StatusShutdown:
		return "ERR_SHUTDOWN"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Frame layout. Both directions are a u32 body length followed by the
// body; the length never includes its own four bytes.
//
//	request body:  op(1) id(8) off(8) length(4) data(length, WRITE only)
//	response body: op(1) status(1) id(8) data(rest)
const (
	reqHeaderLen  = 1 + 8 + 8 + 4
	respHeaderLen = 1 + 1 + 8
)

// DefaultMaxPayload bounds the data carried by one frame (WRITE data or
// READ length). Larger client I/Os are split into multiple requests.
const DefaultMaxPayload = 1 << 20

// Protocol errors.
var (
	// ErrFrameTooLarge rejects a frame whose declared body exceeds the
	// payload limit.
	ErrFrameTooLarge = errors.New("server: frame exceeds payload limit")
	// ErrTruncatedFrame rejects a body shorter than its fixed header or
	// than its declared data length.
	ErrTruncatedFrame = errors.New("server: truncated frame")
	// ErrBadMagic rejects a handshake that is not an AFRAID block
	// service.
	ErrBadMagic = errors.New("server: bad protocol magic")
)

// Request is one client operation.
type Request struct {
	Op     Op
	ID     uint64
	Off    int64
	Length uint32 // READ: bytes wanted; WRITE: len(Data); SCRUB: range length
	Data   []byte // WRITE payload
}

// Response completes one request ID.
type Response struct {
	Op     Op
	Status Status
	ID     uint64
	Data   []byte // READ data, STAT payload, or an error message

	// pooled marks Data as borrowed from bufpool: the connection's
	// flusher returns it after the frame is serialized. Set only for OpRead
	// responses, which are never shared between frame IDs.
	pooled bool

	// frame, when non-nil, is the pooled buffer backing Data: the
	// client's read loop lands a STAT or error payload in one (an OK
	// READ's goes to the caller's own slice). release returns it.
	frame []byte
}

// release returns the response's pooled frame buffer, if any, to the
// pool. The caller must be done with Data, which aliases the frame.
func (r *Response) release() {
	if r.frame != nil {
		bufpool.Put(r.frame)
		r.frame, r.Data = nil, nil
	}
}

// readBufSize is the bufio buffer both ends read their socket through.
// A payload read is handed what is buffered and then, while at least
// this much is still missing, bufio reads the socket straight into the
// destination, so only a buffer's worth at either end of a payload can
// be copied twice. 32 KiB is the largest size at which 64 KiB payloads
// read as fast as at 8 KiB; the rows (8–64 KiB) are in CHANGES.md.
const readBufSize = 32 << 10

// appendRequestHeader appends the frame length prefix and fixed request
// header for r — declaring, but not appending, a payload of n bytes, which
// the client sends as scatter-gather vector elements of their own.
func appendRequestHeader(dst []byte, r *Request, n int) []byte {
	body := reqHeaderLen + n
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, byte(r.Op))
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Off))
	return binary.BigEndian.AppendUint32(dst, r.Length)
}

// decodeRequestHeader parses the fixed header of a request whose body
// carries dataLen bytes after it, and is the one place a request is
// validated: unknown ops, offsets that overflow int64, oversized
// payloads and length/data mismatches are all rejected from the header
// alone, before a streaming reader takes a buffer for the payload.
func decodeRequestHeader(hdr []byte, dataLen int, maxPayload uint32) (Request, error) {
	var r Request
	r.Op = Op(hdr[0])
	r.ID = binary.BigEndian.Uint64(hdr[1:])
	off := binary.BigEndian.Uint64(hdr[9:])
	r.Length = binary.BigEndian.Uint32(hdr[17:])
	if !r.Op.valid() {
		return r, fmt.Errorf("server: unknown op %d", uint8(r.Op))
	}
	if off > math.MaxInt64 {
		return r, fmt.Errorf("server: offset %d overflows int64", off)
	}
	r.Off = int64(off)
	// Length bounds an allocation for READ/WRITE; for SCRUB it is only
	// a range length and may cover gigabytes.
	if (r.Op == OpRead || r.Op == OpWrite) && r.Length > maxPayload {
		return r, fmt.Errorf("%w: length %d > limit %d", ErrFrameTooLarge, r.Length, maxPayload)
	}
	if r.Op == OpWrite {
		if int64(dataLen) != int64(r.Length) {
			return r, fmt.Errorf("%w: WRITE declares %d data bytes, carries %d", ErrTruncatedFrame, r.Length, dataLen)
		}
	} else if dataLen != 0 {
		return r, fmt.Errorf("server: %v carries %d unexpected data bytes", r.Op, dataLen)
	}
	return r, nil
}

// peekFrame returns the first hdrLen bytes of the next frame's body,
// still in br's buffer (nothing is copied or allocated; the caller
// Discards prefix and header), and the body length the prefix declares,
// held to the payload limit before anything is sized from it. A stream
// that ends cleanly before a prefix is io.EOF; one that ends inside a
// frame is ErrTruncatedFrame.
func peekFrame(br *bufio.Reader, hdrLen int, maxPayload uint32) ([]byte, int, error) {
	b, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(b)
	if n > maxPayload+uint32(reqHeaderLen)+uint32(respHeaderLen) {
		return nil, 0, fmt.Errorf("%w: body %d bytes", ErrFrameTooLarge, n)
	}
	if int(n) < hdrLen {
		return nil, 0, fmt.Errorf("%w: body %d bytes, need %d", ErrTruncatedFrame, n, hdrLen)
	}
	if b, err = br.Peek(4 + hdrLen); err != nil {
		return nil, 0, truncated(err)
	}
	return b[4:], int(n), nil
}

// readPayload fills p with the payload bytes that follow a header.
func readPayload(br *bufio.Reader, p []byte) error {
	_, err := io.ReadFull(br, p)
	return truncated(err)
}

// truncated names a stream that ended inside a frame.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	return err
}

// ReadRequest reads and decodes one request frame. Every
// decodeRequestHeader check is made on the header before the payload is
// touched; a WRITE's payload is then read straight into a bufpool buffer
// of the declared length, which the caller may bufpool.Put once done
// with Data.
func ReadRequest(br *bufio.Reader, maxPayload uint32) (Request, error) {
	hdr, n, err := peekFrame(br, reqHeaderLen, maxPayload)
	if err != nil {
		return Request{}, err
	}
	r, err := decodeRequestHeader(hdr, n-reqHeaderLen, maxPayload)
	if err != nil {
		return Request{}, err
	}
	br.Discard(4 + reqHeaderLen)
	if r.Op == OpWrite {
		r.Data = bufpool.Get(int(r.Length))
		if err := readPayload(br, r.Data); err != nil {
			bufpool.Put(r.Data)
			return Request{}, err
		}
	}
	return r, nil
}

// appendResponseHeader appends the frame length prefix and fixed
// response header for r — declaring, but not appending, r.Data, which
// the caller sends as its own scatter-gather vector element.
func appendResponseHeader(dst []byte, r *Response) []byte {
	body := respHeaderLen + len(r.Data)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, byte(r.Op), byte(r.Status))
	return binary.BigEndian.AppendUint64(dst, r.ID)
}

// AppendResponse appends the framed response (length prefix included)
// to dst and returns the extended slice.
func AppendResponse(dst []byte, r *Response) []byte {
	return append(appendResponseHeader(dst, r), r.Data...)
}

// decodeResponseHeader parses the fixed header of a response.
func decodeResponseHeader(hdr []byte) Response {
	return Response{Op: Op(hdr[0]), Status: Status(hdr[1]), ID: binary.BigEndian.Uint64(hdr[2:])}
}

// readResponseHeader reads one response frame up to its payload: the
// decoded header (Data nil) and the count of payload bytes still on the
// wire, which the caller lands with readPayload wherever they belong.
func readResponseHeader(br *bufio.Reader, maxPayload uint32) (Response, int, error) {
	hdr, n, err := peekFrame(br, respHeaderLen, maxPayload)
	if err != nil {
		return Response{}, 0, err
	}
	r := decodeResponseHeader(hdr)
	br.Discard(4 + respHeaderLen)
	return r, n - respHeaderLen, nil
}

// Stat is the STAT payload: a self-describing snapshot of flat,
// dotted, layer-prefixed counters. The served store contributes its own
// layers' keys ("core.dirty_stripes", "tier.promotes", ...; see
// Backend.StatMap) and the server adds "server." entries. A key a node
// does not carry is simply absent, so readers look keys up rather than
// assume a field set; DESIGN.md holds the glossary.
type Stat map[string]int64

// statFormatKV is the one STAT payload format:
//
//	format(1)='K' count(2) { keylen(1) key(keylen) value(8) } × count
//
// The fixed-layout payloads that came before it opened with a version
// byte 1–4; decodeStat rejects those, and anything else, by naming the
// byte.
const statFormatKV = 'K'

// statEntryMin is the smallest encoded entry: a one-byte key.
const statEntryMin = 1 + 1 + 8

// appendStat encodes st. A key the format cannot frame (empty, or over
// 255 bytes) is dropped; no layer produces one.
func appendStat(dst []byte, st Stat) []byte {
	dst = append(dst, statFormatKV, 0, 0)
	count := len(dst) - 2
	n := 0
	for k, v := range st {
		if len(k) == 0 || len(k) > math.MaxUint8 {
			continue
		}
		dst = append(dst, byte(len(k)))
		dst = append(dst, k...)
		dst = binary.BigEndian.AppendUint64(dst, uint64(v))
		n++
	}
	binary.BigEndian.PutUint16(dst[count:], uint16(n))
	return dst
}

// decodeStat parses a STAT payload from the wire. Every length field is
// checked against the bytes actually received before anything is sized
// from it, and empty keys, duplicate keys and trailing bytes are
// rejected.
func decodeStat(b []byte) (Stat, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: empty stat payload", ErrTruncatedFrame)
	}
	if b[0] != statFormatKV {
		return nil, fmt.Errorf("server: unknown stat format byte %#02x", b[0])
	}
	if len(b) < 3 {
		return nil, fmt.Errorf("%w: stat payload %d bytes, no entry count", ErrTruncatedFrame, len(b))
	}
	n := int(binary.BigEndian.Uint16(b[1:]))
	b = b[3:]
	if n > len(b)/statEntryMin {
		return nil, fmt.Errorf("%w: stat declares %d entries in %d bytes", ErrTruncatedFrame, n, len(b))
	}
	st := make(Stat, n)
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, fmt.Errorf("%w: stat entry %d of %d missing", ErrTruncatedFrame, i, n)
		}
		kl := int(b[0])
		if kl == 0 {
			return nil, fmt.Errorf("server: stat entry %d has an empty key", i)
		}
		if len(b) < 1+kl+8 {
			return nil, fmt.Errorf("%w: stat entry %d cut short", ErrTruncatedFrame, i)
		}
		key := string(b[1 : 1+kl])
		if _, dup := st[key]; dup {
			return nil, fmt.Errorf("server: stat key %q sent twice", key)
		}
		st[key] = int64(binary.BigEndian.Uint64(b[1+kl:]))
		b = b[1+kl+8:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("server: stat payload carries %d trailing bytes", len(b))
	}
	return st, nil
}
