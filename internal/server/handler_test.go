package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"afraid/internal/core"
)

// serverGoroutines counts the goroutines running this package's server
// side: anything with a Server or conn method on its stack.
func serverGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "internal/server.(*Server).") || strings.Contains(g, "internal/server.(*conn).") {
			n++
		}
	}
	return n
}

// TestConnGoroutines: an idle connection is one goroutine, its reader,
// and an idle server is its accept loop — nothing waits beside them to
// carry a request or a reply from one goroutine to another.
func TestConnGoroutines(t *testing.T) {
	const conns = 8
	_, _, addr := startServer(t, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour}, Options{})
	for i := 0; i < conns; i++ {
		dialRaw(t, addr) // no Client: its read loop would be counted too
	}
	// A connection serving one request at a time keeps one handler.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := c.WriteAt([]byte("handled"), int64(i)<<12); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the server to be down to one goroutine a connection, one handler and the accept loop",
		func() bool { return serverGoroutines() == conns+1+1+1 })
	// A served request's handler is gone once its connection has closed.
	c.Close()
	waitFor(t, "the server to be down to one goroutine a connection and the accept loop",
		func() bool { return serverGoroutines() == conns+1 })
}

// TestHandlersOutliveTheirRequest: a connection's handler goes back to
// waiting after each reply, so sequential requests reuse one handler, a
// burst starts no more handlers than it has requests in flight, and
// none outlives the connection.
func TestHandlersOutliveTheirRequest(t *testing.T) {
	const idle = 2
	srv, _, addr := startServer(t, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour}, Options{})
	for i := 0; i < idle; i++ {
		dialRaw(t, addr)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stat := func(key string) int64 {
		t.Helper()
		st, err := c.Stat(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		v, ok := st[key]
		if !ok {
			t.Fatalf("STAT has no %s", key)
		}
		return v
	}
	page := make([]byte, 4<<10)
	for i := 0; i < 200; i++ {
		if _, err := c.WriteAt(page, int64(i)*int64(len(page))); err != nil {
			t.Fatal(err)
		}
	}
	if n := stat("server.handler_starts"); n != 1 {
		t.Fatalf("200 sequential writes started %d handlers, want 1", n)
	}

	const burst = 16
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.WriteAt(page, int64(i)*(64<<10))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := stat("server.handlers"); n < 1 || n > burst {
		t.Fatalf("%d handlers after a burst of %d writes, want 1..%d", n, burst, burst)
	}

	c.Close()
	waitFor(t, "the closed connection's handlers to return",
		func() bool { return srv.Metrics().Handlers.Value() == 0 })
	waitFor(t, "the server to be down to its readers and the accept loop",
		func() bool { return serverGoroutines() == idle+1 })
}

// heldConn is the write side of a connection whose first write blocks
// until released; it keeps every write it is handed.
type heldConn struct {
	net.Conn // nil: reply touches nothing else
	entered  chan struct{}
	release  chan struct{}
	mu       sync.Mutex
	writes   [][]byte
}

func (h *heldConn) Write(p []byte) (int, error) {
	h.mu.Lock()
	first := len(h.writes) == 0
	h.writes = append(h.writes, bytes.Clone(p))
	h.mu.Unlock()
	if first {
		close(h.entered)
		<-h.release
	}
	return len(p), nil
}

func (h *heldConn) SetWriteDeadline(time.Time) error { return nil }

// newHeldConn returns a server-side connection over a heldConn. Nothing
// serves it: the test calls reply as handlers would.
func newHeldConn(t *testing.T) (*conn, *heldConn) {
	srv := New(nil, Options{})
	h := &heldConn{entered: make(chan struct{}), release: make(chan struct{})}
	c := srv.newConn(h)
	t.Cleanup(func() {
		srv.removeConn(c)
		srv.connWG.Done()
	})
	return c, h
}

// TestRepliesGatherWhileFlushing: a reply that finds the connection idle
// is written by the goroutine that made it; replies made while that
// write is in flight return at once and leave together in the next one,
// framed as they always were. (Replies without a pooled payload are one
// vector element a batch, so on a conn that is not TCP a batch is one
// Write.)
func TestRepliesGatherWhileFlushing(t *testing.T) {
	c, h := newHeldConn(t)

	resps := []Response{{Op: OpWrite, Status: StatusOK, ID: 1}}
	for id := uint64(2); id <= 9; id++ {
		r := Response{Op: OpWrite, Status: StatusOK, ID: id}
		if id%3 == 0 {
			r = Response{Op: OpRead, Status: StatusIO, ID: id, Data: []byte("disk 3: medium error")}
		}
		resps = append(resps, r)
	}
	first := make(chan struct{})
	go func() {
		defer close(first)
		c.reply(resps[0])
	}()
	<-h.entered
	// 2..9 complete while the first write is held.
	var want []byte
	for _, r := range resps[1:] {
		c.reply(r)
		want = AppendResponse(want, &r)
	}
	close(h.release)
	<-first

	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.writes) != 2 {
		t.Fatalf("%d socket writes for one reply and eight made behind it, want 2", len(h.writes))
	}
	if !bytes.Equal(h.writes[0], AppendResponse(nil, &resps[0])) {
		t.Fatalf("first write is not the first reply's frame: %x", h.writes[0])
	}
	if !bytes.Equal(h.writes[1], want) {
		t.Fatalf("second write is not the eight replies' frames in completion order:\n got %x\nwant %x", h.writes[1], want)
	}
}

// TestReplyQueueIsBounded: behind a write that does not finish, maxQueued
// replies queue and the next one waits — holding its handler, and so its
// in-flight token — until the flusher takes the queue.
func TestReplyQueueIsBounded(t *testing.T) {
	c, h := newHeldConn(t)
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.reply(Response{Op: OpWrite, ID: 1})
	}()
	<-h.entered
	for id := uint64(2); id < 2+maxQueued; id++ {
		c.reply(Response{Op: OpWrite, ID: id})
	}
	over := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.reply(Response{Op: OpWrite, ID: 2 + maxQueued})
		close(over)
	}()
	select {
	case <-over:
		t.Fatalf("reply %d returned with %d queued behind a held write", 2+maxQueued, maxQueued)
	case <-time.After(20 * time.Millisecond):
	}
	close(h.release)
	<-over
}

// TestStalledReaderHoldsOnlyItsOwnHandlers: a client that pipelines
// reads and never reads the responses parks its own handlers behind its
// own reply queue until the write deadline severs it. No other
// connection waits on them: there is no shared goroutine for it to wedge.
func TestStalledReaderHoldsOnlyItsOwnHandlers(t *testing.T) {
	srv, _, addr := startServer(t, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour},
		Options{writeTimeout: 200 * time.Millisecond})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Pinned, or autotuning may grow it to absorb every response.
	if err := nc.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write([]byte(Magic)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(nc, make([]byte, handshakeReplyLen)); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 128 × 64 KiB of responses: twice what the socket buffers take.
	var buf []byte
	for i := 0; i < 128; i++ {
		buf = appendRequest(buf, &Request{Op: OpRead, ID: uint64(i + 1), Length: 64 << 10})
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	page := make([]byte, 4<<10)
	trips := 0
	for srv.Metrics().ConnsOpen.Value() > 1 {
		t0 := time.Now()
		if _, err := c.WriteAtContext(ctx, page, 1<<20); err != nil {
			t.Fatalf("round trip %d beside a stalled connection: %v", trips, err)
		}
		if d := time.Since(t0); d > 50*time.Millisecond {
			t.Fatalf("round trip %d beside a stalled connection took %v, want under 50ms", trips, d)
		}
		trips++
	}
	if trips == 0 {
		t.Fatal("no round trip made while the stalled connection was open")
	}
	// Severed, and its handlers with it.
	waitFor(t, "the stalled connection's handlers to return", func() bool { return srv.Metrics().Inflight.Value() == 0 })
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.Copy(io.Discard, nc)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("stalled connection was never closed by the server")
	}
}
