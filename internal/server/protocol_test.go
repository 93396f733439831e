package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"afraid/internal/bufpool"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpRead, ID: 1, Off: 0, Length: 4096},
		{Op: OpRead, ID: math.MaxUint64, Off: math.MaxInt64 - 4096, Length: 4096},
		{Op: OpWrite, ID: 2, Off: 8192, Length: 3, Data: []byte{0xde, 0xad, 0xbf}},
		{Op: OpWrite, ID: 3, Off: 0, Length: 0, Data: []byte{}},
		{Op: OpFlush, ID: 4},
		{Op: OpStat, ID: 5},
	}
	for _, want := range cases {
		t.Run(want.Op.String(), func(t *testing.T) {
			frame := appendRequest(nil, &want)
			got, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame)), DefaultMaxPayload)
			if err != nil {
				t.Fatalf("ReadRequest: %v", err)
			}
			if got.Op != want.Op || got.ID != want.ID || got.Off != want.Off || got.Length != want.Length {
				t.Fatalf("round trip: got %+v want %+v", got, want)
			}
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("data round trip: got %x want %x", got.Data, want.Data)
			}
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Op: OpRead, Status: StatusOK, ID: 7, Data: []byte("abcd")},
		{Op: OpWrite, Status: StatusBusy, ID: 8},
		{Op: OpFlush, Status: StatusIO, ID: 9, Data: []byte("disk 3 write: device failed")},
		{Op: OpRead, Status: StatusDataLoss, ID: 10, Data: []byte("stripe 12")},
		{Op: OpStat, Status: StatusOK, ID: 11, Data: appendStat(nil, Stat{"server.capacity": 1 << 30, "core.writes": 42})},
	}
	// The same table through the reader a connection uses: a Client's
	// read loop, fed by a peer that answers each request with the row.
	c, peer := dialScripted(t, DefaultMaxPayload)
	peerBr := bufio.NewReader(peer)
	for _, want := range cases {
		t.Run(want.Status.String(), func(t *testing.T) {
			frame := AppendResponse(nil, &want)
			got, err := readResponse(bufio.NewReader(bytes.NewReader(frame)), DefaultMaxPayload)
			if err != nil {
				t.Fatalf("readResponse: %v", err)
			}
			if got.Op != want.Op || got.Status != want.Status || got.ID != want.ID {
				t.Fatalf("round trip: got %+v want %+v", got, want)
			}
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("data round trip: got %x want %x", got.Data, want.Data)
			}

			dst := make([]byte, len(want.Data))
			_, ch, err := c.start(&Request{Op: want.Op, Length: uint32(len(dst))}, dst)
			if err != nil {
				t.Fatal(err)
			}
			req, err := ReadRequest(peerBr, DefaultMaxPayload)
			if err != nil {
				t.Fatal(err)
			}
			want.ID = req.ID
			if _, err := peer.Write(AppendResponse(nil, &want)); err != nil {
				t.Fatal(err)
			}
			got = <-ch
			if got.Op != want.Op || got.Status != want.Status || got.ID != want.ID || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("client round trip: got %+v want %+v", got, want)
			}
			// An OK READ lands in the caller's slice; anything else that
			// carries bytes lands in a pooled frame.
			direct := want.Op == OpRead && want.Status == StatusOK
			inPlace := len(got.Data) > 0 && &got.Data[0] == &dst[0]
			pooled := got.frame != nil
			if inPlace != direct || pooled != (!direct && len(want.Data) > 0) {
				t.Fatalf("payload of %v %v: in caller's slice %v, pooled frame %v", want.Op, want.Status, inPlace, pooled)
			}
			got.release()
		})
	}
}

func TestStatRoundTrip(t *testing.T) {
	want := Stat{
		"server.capacity": 512 << 20, "core.mode": 0, "core.dirty_stripes": 17,
		"core.damage_bytes": math.MaxInt64, "tier.dirty_bytes": -1,
		"server.write_p99_ns": int64(9 * time.Millisecond),
	}
	got, err := decodeStat(appendStat(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stat round trip: got %v want %v", got, want)
	}
	if got.ModeString() != "afraid" {
		t.Fatalf("ModeString() = %q, want afraid", got.ModeString())
	}
	if (Stat{}).ModeString() != "-" {
		t.Fatalf("ModeString() of a snapshot without core.mode = %q, want -", (Stat{}).ModeString())
	}
	// A retired fixed-layout payload is refused by naming its leading byte.
	for v := byte(1); v <= 4; v++ {
		_, err := decodeStat(legacyStat(v))
		if want := fmt.Sprintf("format byte %#02x", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("decodeStat(v%d payload) = %v, want an error naming %q", v, err, want)
		}
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	write := func(length uint32, data []byte) []byte {
		body := appendRequest(nil, &Request{Op: OpWrite, ID: 1, Off: 0, Length: length, Data: data})[4:]
		return body
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"short header", make([]byte, reqHeaderLen-1)},
		{"unknown op", func() []byte {
			b := appendRequest(nil, &Request{Op: OpRead, ID: 1})[4:]
			b[0] = 99
			return b
		}()},
		{"retired op 5", func() []byte { // SCRUB's byte: no op has it
			b := appendRequest(nil, &Request{Op: OpRead, ID: 6, Off: 1 << 20, Length: 64 << 20})[4:]
			b[0] = 5
			return b
		}()},
		{"zero op", func() []byte {
			b := appendRequest(nil, &Request{Op: OpRead, ID: 1})[4:]
			b[0] = 0
			return b
		}()},
		{"offset overflows int64", func() []byte {
			b := appendRequest(nil, &Request{Op: OpRead, ID: 1, Length: 16})[4:]
			for i := 9; i < 17; i++ {
				b[i] = 0xff
			}
			return b
		}()},
		{"read length over limit", func() []byte {
			b := appendRequest(nil, &Request{Op: OpRead, ID: 1, Length: DefaultMaxPayload + 1})[4:]
			return b
		}()},
		{"write data shorter than declared", write(100, make([]byte, 50))},
		{"write data longer than declared", write(50, make([]byte, 100))},
		{"trailing data on READ", append(appendRequest(nil, &Request{Op: OpRead, ID: 1, Length: 8})[4:], 1, 2, 3)},
		{"trailing data on FLUSH", append(appendRequest(nil, &Request{Op: OpFlush, ID: 1})[4:], 9)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeRequest(tc.body, DefaultMaxPayload); err == nil {
				t.Fatalf("decodeRequest accepted %q body", tc.name)
			}
		})
	}
}

func TestReadRequestRejectsOversizedAndTruncatedFrames(t *testing.T) {
	// Declared body length far over the limit: rejected from the prefix.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(huge)), DefaultMaxPayload); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
	// Frame cut off mid-body.
	frame := appendRequest(nil, &Request{Op: OpWrite, ID: 1, Length: 64, Data: make([]byte, 64)})
	cut := frame[:len(frame)-10]
	if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(cut)), DefaultMaxPayload); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("truncated frame: got %v, want ErrTruncatedFrame", err)
	}
	// Clean EOF at a frame boundary stays io.EOF so connection close is
	// distinguishable from corruption.
	if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(nil)), DefaultMaxPayload); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
	// Every header check is made before the payload is awaited, let alone
	// a buffer taken for it: each of these streams ends where its payload
	// would begin, and must be refused for what its header says, not for
	// being short.
	const limit = 4096
	frame = appendRequest(nil, &Request{Op: OpWrite, ID: 1, Length: 64, Data: make([]byte, 64)})
	headerOnly := func(edit func(hdr []byte)) *bufio.Reader {
		b := bytes.Clone(frame[:4+reqHeaderLen])
		edit(b[4:])
		return bufio.NewReader(bytes.NewReader(b))
	}
	if _, err := ReadRequest(headerOnly(func(h []byte) { h[0] = 99 }), limit); err == nil || errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("unknown op ahead of a payload: got %v, want the op named", err)
	}
	if _, err := ReadRequest(headerOnly(func(h []byte) { h[0] = byte(OpFlush) }), limit); err == nil || errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("FLUSH ahead of a payload: got %v, want the data refused", err)
	}
	if _, err := ReadRequest(headerOnly(func(h []byte) { h[9] = 0xff }), limit); err == nil || errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("overflowing offset ahead of a payload: got %v, want the offset named", err)
	}
	if _, err := ReadRequest(headerOnly(func(h []byte) { h[18] = 0xff }), limit); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WRITE length over the limit inside a small frame: got %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadRequest(headerOnly(func(h []byte) { h[20] = 63 }), limit); !errors.Is(err, ErrTruncatedFrame) || !strings.Contains(err.Error(), "declares 63") {
		t.Fatalf("WRITE length disagreeing with the frame: got %v, want the mismatch named", err)
	}
}

// outcome reduces a decode result to what two decoders must agree on:
// the request when accepted, the class of error when not.
func outcome(r Request, err error) string {
	switch {
	case err == nil:
		return fmt.Sprintf("%v id=%d off=%d len=%d data=%x", r.Op, r.ID, r.Off, r.Length, r.Data)
	case errors.Is(err, ErrFrameTooLarge):
		return "too large"
	case errors.Is(err, ErrTruncatedFrame):
		return "truncated"
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return "eof"
	default:
		return "invalid"
	}
}

// FuzzReadRequest holds the streaming reader a connection uses to the
// in-memory decoder: arbitrary bytes, delivered whole and one byte at a
// time, must yield what decodeRequest yields on the same body — the
// same request or the same class of error — and a refused header must
// be refused before its payload is read, so no buffer is ever taken
// that the declared, limit-checked length does not cover.
func FuzzReadRequest(f *testing.F) {
	f.Add(appendRequest(nil, &Request{Op: OpRead, ID: 1, Off: 4096, Length: 512}))
	write := appendRequest(nil, &Request{Op: OpWrite, ID: 2, Off: 0, Length: 5, Data: []byte("hello")})
	f.Add(write)
	f.Add(write[:len(write)-2])                      // payload cut short
	f.Add(append(bytes.Clone(write), write...))      // a second frame behind it
	f.Add(append([]byte{0, 0, 0, 30}, write[4:]...)) // prefix longer than header + declared data
	f.Add(appendRequest(nil, &Request{Op: OpWrite, ID: 3, Length: 5000, Data: make([]byte, 64)}))
	f.Add(appendRequest(nil, &Request{Op: OpFlush, ID: 3, Data: []byte{9}}))
	f.Add(appendRequest(nil, &Request{Op: Op(5), ID: 4, Off: 0, Length: 1 << 30})) // a retired op: refused
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 5, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		const limit = 4096
		whole, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame)), limit)
		got := outcome(whole, err)
		if err == nil {
			payload := 0
			if whole.Op == OpWrite {
				payload = int(whole.Length)
			}
			if len(whole.Data) != payload || payload > limit {
				t.Fatalf("reader took %d payload bytes for %v length %d, limit %d", len(whole.Data), whole.Op, whole.Length, limit)
			}
		}
		bufpool.Put(whole.Data)
		trickled, err := ReadRequest(bufio.NewReader(iotest.OneByteReader(bytes.NewReader(frame))), limit)
		if o := outcome(trickled, err); o != got {
			t.Fatalf("one byte at a time: %s; whole: %s", o, got)
		}
		bufpool.Put(trickled.Data)

		if len(frame) < 4 {
			if got != "eof" {
				t.Fatalf("stream of %d bytes: %s, want eof", len(frame), got)
			}
			return
		}
		n := int(uint32(frame[0])<<24 | uint32(frame[1])<<16 | uint32(frame[2])<<8 | uint32(frame[3]))
		if n > limit+reqHeaderLen+respHeaderLen {
			if got != "too large" {
				t.Fatalf("prefix declares %d bytes: %s, want too large", n, got)
			}
			return
		}
		if len(frame)-4 < n {
			if err == nil {
				t.Fatalf("reader accepted %d of a declared %d body bytes: %s", len(frame)-4, n, got)
			}
			return
		}
		want, err := decodeRequest(frame[4:4+n], limit)
		if o := outcome(want, err); o != got {
			t.Fatalf("ReadRequest: %s; decodeRequest on the same body: %s", got, o)
		}
		if err != nil {
			// Refused from the header alone, payload unread.
			end := min(len(frame), 4+reqHeaderLen)
			_, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame[:end])), limit)
			if o := outcome(Request{}, err); o != got {
				t.Fatalf("header alone: %s; with its payload: %s", o, got)
			}
		}
	})
}

// FuzzDecodeRequest feeds arbitrary frames through the reader and the
// body decoder: malformed input must error, never panic, and accepted
// requests must re-encode to a decodable frame.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(appendRequest(nil, &Request{Op: OpRead, ID: 1, Off: 4096, Length: 512}))
	f.Add(appendRequest(nil, &Request{Op: OpWrite, ID: 2, Off: 0, Length: 5, Data: []byte("hello")}))
	f.Add(appendRequest(nil, &Request{Op: OpFlush, ID: 3}))
	f.Add(appendRequest(nil, &Request{Op: Op(5), ID: 4, Off: 0, Length: 1 << 30})) // a retired op: refused
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		const limit = 4096
		req, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame)), limit)
		if err != nil {
			return
		}
		if (req.Op == OpRead || req.Op == OpWrite) && req.Length > limit {
			t.Fatalf("decoder admitted payload length %d over limit %d", req.Length, limit)
		}
		if req.Off < 0 {
			t.Fatalf("decoder admitted negative offset %d", req.Off)
		}
		// Accepted requests must survive a re-encode round trip.
		again, err := decodeRequest(appendRequest(nil, &req)[4:], limit)
		if err != nil {
			t.Fatalf("re-encode of accepted request failed: %v", err)
		}
		if again.Op != req.Op || again.ID != req.ID || again.Off != req.Off || again.Length != req.Length || !bytes.Equal(again.Data, req.Data) {
			t.Fatalf("re-encode changed request: %+v vs %+v", again, req)
		}
	})
}

// legacyStat builds a fixed-layout STAT payload as the retired versions
// 1–4 framed it: version byte, mode byte, then 7, 13, 16 or 20 u64s.
func legacyStat(version byte) []byte {
	fields := map[byte]int{1: 7, 2: 13, 3: 16, 4: 20}[version]
	return append([]byte{version, 0}, make([]byte, 8*fields)...)
}

// FuzzDecodeStat feeds arbitrary STAT payloads through the decoder.
// Malformed input must error, never panic. What is accepted must be the
// key/value format with every byte accounted for — the declared count
// met exactly, no empty or repeated key, nothing trailing — which is
// what makes each malformed seed below a rejection; and it must
// re-encode to an equal snapshot.
func FuzzDecodeStat(f *testing.F) {
	good := appendStat(nil, Stat{"core.dirty_stripes": 3, "server.capacity": 1 << 30, "tier.promotes": 9})
	f.Add(good)
	f.Add(appendStat(nil, Stat{}))
	f.Add([]byte{})
	f.Add(good[:2])                                                 // no room for the count
	f.Add(good[:5])                                                 // key cut short
	f.Add(good[:len(good)-1])                                       // value cut short
	f.Add([]byte{statFormatKV, 0xff, 0xff})                         // 65535 entries declared, none sent
	f.Add(append([]byte{statFormatKV, 0, 9}, good[3:]...))          // over-counted
	f.Add(append([]byte{statFormatKV, 0, 1}, good[3:]...))          // under-counted: trailing bytes
	f.Add([]byte{statFormatKV, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // empty key
	f.Add([]byte{statFormatKV, 0, 2,
		1, 'a', 0, 0, 0, 0, 0, 0, 0, 1,
		1, 'a', 0, 0, 0, 0, 0, 0, 0, 2}) // duplicate key
	for v := byte(1); v <= 4; v++ {
		f.Add(legacyStat(v))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := decodeStat(payload)
		if err != nil {
			return
		}
		if payload[0] != statFormatKV {
			t.Fatalf("decoder accepted format byte %#02x", payload[0])
		}
		if declared := int(payload[1])<<8 | int(payload[2]); declared != len(st) {
			t.Fatalf("decoder returned %d entries for %d declared", len(st), declared)
		}
		if _, ok := st[""]; ok {
			t.Fatal("decoder admitted an empty key")
		}
		enc := appendStat(nil, st)
		if len(enc) != len(payload) {
			t.Fatalf("accepted %d-byte payload re-encodes to %d bytes", len(payload), len(enc))
		}
		again, err := decodeStat(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("re-encode changed snapshot: %v vs %v", again, st)
		}
	})
}

// appendRequest appends the framed request (length prefix included) to
// dst and returns the extended slice.
func appendRequest(dst []byte, r *Request) []byte {
	return append(appendRequestHeader(dst, r, len(r.Data)), r.Data...)
}

// decodeRequest parses a request body (the bytes after the length
// prefix) already in memory: decodeRequestHeader's checks on a body
// long enough to hold a header. The returned Data aliases body.
func decodeRequest(body []byte, maxPayload uint32) (Request, error) {
	if len(body) < reqHeaderLen {
		return Request{}, fmt.Errorf("%w: request body %d bytes, need %d", ErrTruncatedFrame, len(body), reqHeaderLen)
	}
	r, err := decodeRequestHeader(body, len(body)-reqHeaderLen, maxPayload)
	if err == nil && r.Op == OpWrite {
		r.Data = body[reqHeaderLen:]
	}
	return r, err
}
