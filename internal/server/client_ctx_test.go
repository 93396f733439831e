package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"afraid/internal/core"
)

// startStalledServer speaks just enough protocol to complete the
// handshake, then never reads another byte and never responds: the
// degenerate node a cluster-level timeout must cut loose promptly. It
// advertises a tiny payload limit so client transfers split into many
// chunks and exercise the windowed-pipelining loop.
func startStalledServer(t *testing.T, maxPayload uint32) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				magic := make([]byte, len(Magic))
				if _, err := io.ReadFull(nc, magic); err != nil {
					return
				}
				reply := append([]byte(Magic), appendUint64(nil, 1<<20)...)
				reply = appendUint32(reply, maxPayload)
				if _, err := nc.Write(reply); err != nil {
					return
				}
				<-stop // hold the connection open, reading nothing
			}(nc)
		}
	}()
	t.Cleanup(func() {
		close(stop)
		lis.Close()
	})
	return lis.Addr().String()
}

// TestWriteAtContextAbandonsChunksOnCancel is the regression test for
// ctx propagation into the windowed chunk loop: with the server stalled
// (handshake done, nothing read or answered since), a large split write
// under a short deadline must return promptly with the context error
// instead of waiting out the chunk completions that will never come.
func TestWriteAtContextAbandonsChunksOnCancel(t *testing.T) {
	// 1K chunks keep the 16-chunk pipeline window well under the
	// socket buffers, so the issue loop never blocks in a raw write.
	addr := startStalledServer(t, 1024)
	c, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	buf := make([]byte, 64<<10) // 64 chunks at 1K — several full windows
	start := time.Now()
	_, err = c.WriteAtContext(ctx, buf, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WriteAtContext = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("WriteAtContext took %v after a 150ms deadline", d)
	}
}

// TestReadAtContextPreCancelled checks the issue-side ctx gate: a
// context cancelled before the call must stop the loop before it pushes
// a window of chunk requests at the (stalled) server.
func TestReadAtContextPreCancelled(t *testing.T) {
	addr := startStalledServer(t, 4096)
	c, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := c.ReadAtContext(ctx, make([]byte, 64<<10), 0)
	if n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadAtContext = (%d, %v), want (0, Canceled)", n, err)
	}
	if got := c.Err(); got != nil {
		t.Fatalf("client terminally failed by a cancelled read: %v", got)
	}
}

// TestDialTimeoutHandshake bounds the setup path: a listener that
// accepts but never answers the handshake must fail DialTimeout within
// the bound rather than hanging on the handshake read.
func TestDialTimeoutHandshake(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			defer nc.Close() // accept and go mute
		}
	}()
	start := time.Now()
	if _, err := DialTimeout(lis.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("DialTimeout succeeded against a mute listener")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("DialTimeout took %v with a 200ms bound", d)
	}
}

// TestPingAndConnectionLost exercises the health-check round trip and
// the terminal-state contract: Ping succeeds against a live server,
// and after the server goes away every call (and Err) reports
// ErrConnectionLost.
func TestPingAndConnectionLost(t *testing.T) {
	srv, _, addr := startServer(t, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour}, Options{})
	c, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.Ping(ctx)
		if errors.Is(err, ErrConnectionLost) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Ping after server close = %v, want ErrConnectionLost", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Err(); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("Err = %v, want ErrConnectionLost", err)
	}
}

// dialScripted connects a Client to a peer the test plays by hand: the
// handshake is done, and the returned conn is the peer's end, on which
// the test reads request frames and writes whatever response bytes it
// likes.
func dialScripted(t *testing.T, maxPayload uint32) (*Client, net.Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			close(accepted)
			return
		}
		magic := make([]byte, len(Magic))
		io.ReadFull(nc, magic)
		reply := append([]byte(Magic), appendUint64(nil, 1<<30)...)
		nc.Write(appendUint32(reply, maxPayload))
		accepted <- nc
	}()
	c, err := DialTimeout(lis.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	if peer == nil {
		t.Fatal("scripted peer never accepted")
	}
	t.Cleanup(func() {
		c.Close()
		peer.Close()
	})
	return c, peer
}

// TestCancelledReadNeverWritesAfterReturn races cancellation against
// completion on a live server: whichever wins, once ReadAtContext has
// returned the client must be done with p. Every cancelled call's
// buffer is overwritten with a sentinel the moment the call returns —
// under -race a read loop still landing the payload is a reported
// write/write race — and the sentinels are checked again after the
// client has shut down, when every response that was ever in flight has
// been read or dropped.
func TestCancelledReadNeverWritesAfterReturn(t *testing.T) {
	_, st, addr := startServer(t, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour}, Options{})
	const ioSize = 256 << 10 // long enough on the wire for deadlines to land mid-payload
	want := make([]byte, ioSize)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	if _, err := st.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Spread the deadlines over twice a typical round trip, so some land
	// before the request is sent, some after the response is home, and
	// the rest in between — the header-decoded, payload-arriving window
	// included.
	p := make([]byte, ioSize)
	t0 := time.Now()
	const warm = 16
	for i := 0; i < warm; i++ {
		if _, err := c.ReadAt(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	trip := time.Since(t0) / warm

	const rounds = 200
	sentinel := bytes.Repeat([]byte{0xA5}, ioSize)
	var abandoned [][]byte
	completed := 0
	for i := 0; i < rounds; i++ {
		p := make([]byte, ioSize)
		ctx, cancel := context.WithTimeout(context.Background(), 2*trip*time.Duration(i)/rounds)
		n, err := c.ReadAtContext(ctx, p, 0)
		cancel()
		switch {
		case err == nil:
			if n != ioSize || !bytes.Equal(p, want) {
				t.Fatalf("round %d: completed read returned %d bytes, wrong data", i, n)
			}
			completed++
		case errors.Is(err, context.DeadlineExceeded):
			copy(p, sentinel)
			abandoned = append(abandoned, p)
		default:
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("a cancelled read on a live connection severed it: %v", err)
	}
	if _, err := c.ReadAt(p, 0); err != nil || !bytes.Equal(p, want) {
		t.Fatalf("read after the cancellations: %v", err)
	}
	c.Close()
	t.Logf("%d reads completed, %d were cancelled (round trip ≈ %v)", completed, len(abandoned), trip)
	if completed == 0 || len(abandoned) == 0 {
		t.Fatalf("the race was never run: %d completed, %d cancelled", completed, len(abandoned))
	}
	for i, p := range abandoned {
		if !bytes.Equal(p, sentinel) {
			t.Fatalf("cancelled read %d: its buffer was written after ReadAtContext returned", i)
		}
	}
}

// TestStalledPayloadSeversConnection plays the peer that stops in the
// middle of a frame: it answers a READ with a header and half the
// payload, then goes silent. The read loop has claimed the call and
// owns p, so the caller cannot simply leave at its deadline; it must
// get out anyway, within settleGrace, by the client severing the
// connection — after which the client is terminally failed and the
// other call in flight on it fails rather than hangs.
func TestStalledPayloadSeversConnection(t *testing.T) {
	c, peer := dialScripted(t, DefaultMaxPayload)
	const ioSize = 64 << 10
	peerBr := bufio.NewReader(peer)

	var wg sync.WaitGroup
	wg.Add(1)
	var otherErr error
	go func() { // a second call the peer never answers
		defer wg.Done()
		otherErr = c.Flush(context.Background())
	}()

	p := make([]byte, ioSize)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	go func() {
		for {
			req, err := ReadRequest(peerBr, DefaultMaxPayload)
			if err != nil {
				return
			}
			if req.Op != OpRead {
				continue
			}
			frame := AppendResponse(nil, &Response{Op: OpRead, Status: StatusOK, ID: req.ID, Data: make([]byte, ioSize)})
			peer.Write(frame[:len(frame)-ioSize/2])
		}
	}()
	start := time.Now()
	_, err := c.ReadAtContext(ctx, p, 0)
	took := time.Since(start)
	copy(p, bytes.Repeat([]byte{0xA5}, ioSize)) // ours again: a late landing is a race
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReadAtContext = %v, want DeadlineExceeded", err)
	}
	// 50 ms of deadline, settleGrace of waiting for the stalled payload,
	// and a second of slack for a loaded box.
	if bound := 50*time.Millisecond + settleGrace + time.Second; took > bound {
		t.Fatalf("ReadAtContext took %v against a peer stalled mid-payload, want under %v", took, bound)
	}
	if took < 50*time.Millisecond+settleGrace {
		t.Fatalf("ReadAtContext returned after %v, before the read loop could have let go of p", took)
	}
	if err := c.Err(); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("Err after severing = %v, want ErrConnectionLost", err)
	}
	wg.Wait()
	if !errors.Is(otherErr, ErrConnectionLost) {
		t.Fatalf("the other in-flight call = %v, want ErrConnectionLost", otherErr)
	}
}

// TestSlowPayloadKeepsConnection is the other side of settleGrace: a
// payload whose second half arrives late, but inside the grace, costs
// the cancelled caller the wait and nothing else — the connection
// lives, and p holds the whole payload by the time the call returns.
func TestSlowPayloadKeepsConnection(t *testing.T) {
	c, peer := dialScripted(t, DefaultMaxPayload)
	const ioSize = 64 << 10
	peerBr := bufio.NewReader(peer)
	payload := bytes.Repeat([]byte{0x3C}, ioSize)
	go func() {
		for {
			req, err := ReadRequest(peerBr, DefaultMaxPayload)
			if err != nil {
				return
			}
			frame := AppendResponse(nil, &Response{Op: req.Op, Status: StatusOK, ID: req.ID})
			if req.Op == OpRead {
				frame = AppendResponse(nil, &Response{Op: OpRead, Status: StatusOK, ID: req.ID, Data: payload})
				peer.Write(frame[:len(frame)-ioSize/2])
				time.Sleep(150 * time.Millisecond)
				frame = frame[len(frame)-ioSize/2:]
			}
			peer.Write(frame)
		}
	}()
	p := make([]byte, ioSize)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.ReadAtContext(ctx, p, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReadAtContext = %v, want DeadlineExceeded", err)
	}
	if !bytes.Equal(p, payload) {
		t.Fatal("ReadAtContext returned while its claimed payload was still landing")
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping after a slow payload: %v (Err %v)", err, c.Err())
	}
}
