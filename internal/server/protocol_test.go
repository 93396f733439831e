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
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpRead, ID: 1, Off: 0, Length: 4096},
		{Op: OpRead, ID: math.MaxUint64, Off: math.MaxInt64 - 4096, Length: 4096},
		{Op: OpWrite, ID: 2, Off: 8192, Length: 3, Data: []byte{0xde, 0xad, 0xbf}},
		{Op: OpWrite, ID: 3, Off: 0, Length: 0, Data: []byte{}},
		{Op: OpFlush, ID: 4},
		{Op: OpStat, ID: 5},
		{Op: OpScrub, ID: 6, Off: 1 << 20, Length: 64 << 20}, // range, not payload
	}
	for _, want := range cases {
		t.Run(want.Op.String(), func(t *testing.T) {
			frame := AppendRequest(nil, &want)
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
	for _, want := range cases {
		t.Run(want.Status.String(), func(t *testing.T) {
			frame := AppendResponse(nil, &want)
			got, err := ReadResponse(bufio.NewReader(bytes.NewReader(frame)), DefaultMaxPayload)
			if err != nil {
				t.Fatalf("ReadResponse: %v", err)
			}
			if got.Op != want.Op || got.Status != want.Status || got.ID != want.ID {
				t.Fatalf("round trip: got %+v want %+v", got, want)
			}
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("data round trip: got %x want %x", got.Data, want.Data)
			}
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
		body := AppendRequest(nil, &Request{Op: OpWrite, ID: 1, Off: 0, Length: length, Data: data})[4:]
		return body
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"short header", make([]byte, reqHeaderLen-1)},
		{"unknown op", func() []byte {
			b := AppendRequest(nil, &Request{Op: OpRead, ID: 1})[4:]
			b[0] = 99
			return b
		}()},
		{"zero op", func() []byte {
			b := AppendRequest(nil, &Request{Op: OpRead, ID: 1})[4:]
			b[0] = 0
			return b
		}()},
		{"offset overflows int64", func() []byte {
			b := AppendRequest(nil, &Request{Op: OpRead, ID: 1, Length: 16})[4:]
			for i := 9; i < 17; i++ {
				b[i] = 0xff
			}
			return b
		}()},
		{"read length over limit", func() []byte {
			b := AppendRequest(nil, &Request{Op: OpRead, ID: 1, Length: DefaultMaxPayload + 1})[4:]
			return b
		}()},
		{"write data shorter than declared", write(100, make([]byte, 50))},
		{"write data longer than declared", write(50, make([]byte, 100))},
		{"trailing data on READ", append(AppendRequest(nil, &Request{Op: OpRead, ID: 1, Length: 8})[4:], 1, 2, 3)},
		{"trailing data on FLUSH", append(AppendRequest(nil, &Request{Op: OpFlush, ID: 1})[4:], 9)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeRequest(tc.body, DefaultMaxPayload); err == nil {
				t.Fatalf("DecodeRequest accepted %q body", tc.name)
			}
		})
	}
}

func TestReadRequestRejectsOversizedAndTruncatedFrames(t *testing.T) {
	// Declared body length far over the limit: rejected before allocating.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(huge)), DefaultMaxPayload); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
	// Frame cut off mid-body.
	frame := AppendRequest(nil, &Request{Op: OpWrite, ID: 1, Length: 64, Data: make([]byte, 64)})
	cut := frame[:len(frame)-10]
	if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(cut)), DefaultMaxPayload); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("truncated frame: got %v, want ErrTruncatedFrame", err)
	}
	// Clean EOF at a frame boundary stays io.EOF so connection close is
	// distinguishable from corruption.
	if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(nil)), DefaultMaxPayload); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

// FuzzDecodeRequest feeds arbitrary frames through the reader and the
// body decoder: malformed input must error, never panic, and accepted
// requests must re-encode to a decodable frame.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{Op: OpRead, ID: 1, Off: 4096, Length: 512}))
	f.Add(AppendRequest(nil, &Request{Op: OpWrite, ID: 2, Off: 0, Length: 5, Data: []byte("hello")}))
	f.Add(AppendRequest(nil, &Request{Op: OpFlush, ID: 3}))
	f.Add(AppendRequest(nil, &Request{Op: OpScrub, ID: 4, Off: 0, Length: 1 << 30}))
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
		again, err := DecodeRequest(AppendRequest(nil, &req)[4:], limit)
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
