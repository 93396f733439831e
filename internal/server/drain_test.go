package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/testutil"
)

// gatedBackend wraps a real store but parks writes on a gate so tests
// can hold requests in flight deterministically.
type gatedBackend struct {
	*core.Store
	gate    chan struct{} // writes block receiving from it
	blocked atomic.Int64
}

func (g *gatedBackend) WriteContext(ctx context.Context, p []byte, off int64) (int, error) {
	g.blocked.Add(1)
	defer g.blocked.Add(-1)
	select {
	case <-g.gate:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return g.Store.WriteContext(ctx, p, off)
}

func startGated(t *testing.T, srvOpts Options) (*Server, *gatedBackend, string) {
	t.Helper()
	var g *gatedBackend
	srv, addr := startWrapped(t, srvOpts, func(st *core.Store) Backend {
		g = &gatedBackend{Store: st, gate: make(chan struct{})}
		return g
	})
	return srv, g, addr
}

// startWrapped serves wrap's Backend over a fresh store.
func startWrapped(t *testing.T, srvOpts Options, wrap func(*core.Store) Backend) (*Server, string) {
	t.Helper()
	devs := make([]core.BlockDevice, 5)
	for i := range devs {
		devs[i] = core.NewMemDevice(4 << 20)
	}
	st, err := core.Open(devs, &core.MemNVRAM{}, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(wrap(st), srvOpts)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return srv, lis.Addr().String()
}

// ctxBackend hands each write's context to inspect, which stands in for
// the store call.
type ctxBackend struct {
	*core.Store
	inspect func(ctx context.Context) error
}

func (b *ctxBackend) WriteContext(ctx context.Context, p []byte, off int64) (int, error) {
	if err := b.inspect(ctx); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestRequestContext holds the store call's context to context.Context's
// contract, one row per clause, over a store that inspects it: a
// deadline of frame arrival + RequestTimeout, reached by polling Err or
// by waiting on Done, inherited by a derived context; cancelled when
// the call returns, releasing whatever the store left waiting on it;
// and cancelled by a hard Close.
func TestRequestContext(t *testing.T) {
	const short, long = 50 * time.Millisecond, time.Hour
	released := make(chan error, 1)
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		// inspect is the store call; sent precedes the frame's arrival.
		inspect func(t *testing.T, ctx context.Context, sent time.Time) error
		close   bool               // hard Close while the call runs
		want    error              // what the client sees, unless close; nil: success
		after   func(t *testing.T) // checks made once the client has its reply
	}{
		{"err polled to the deadline", short, func(t *testing.T, ctx context.Context, _ time.Time) error {
			for ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			select {
			case <-ctx.Done():
			default:
				t.Error("Err non-nil before Done is closed")
			}
			return ctx.Err()
		}, false, ErrTimeout, nil},
		{"done woken at the deadline", short, func(t *testing.T, ctx context.Context, _ time.Time) error {
			<-ctx.Done()
			if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("Err after Done = %v, want DeadlineExceeded", err)
			}
			return ctx.Err()
		}, false, ErrTimeout, nil},
		{"deadline is arrival plus timeout", long, func(t *testing.T, ctx context.Context, sent time.Time) error {
			dl, ok := ctx.Deadline()
			if lo, hi := sent.Add(long), time.Now().Add(long); !ok || dl.Before(lo) || dl.After(hi) {
				t.Errorf("Deadline() = %v, %v; want between %v and %v", dl, ok, lo, hi)
			}
			return nil
		}, false, nil, nil},
		{"child inherits the deadline", short, func(t *testing.T, ctx context.Context, _ time.Time) error {
			child, cancel := context.WithCancel(ctx)
			defer cancel()
			dl, _ := ctx.Deadline()
			if cdl, ok := child.Deadline(); !ok || !cdl.Equal(dl) {
				t.Errorf("child Deadline() = %v, %v; want %v", cdl, ok, dl)
			}
			<-child.Done()
			if err := child.Err(); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("child Err = %v, want DeadlineExceeded", err)
			}
			return child.Err()
		}, false, ErrTimeout, nil},
		{"waiter released at return", long, func(t *testing.T, ctx context.Context, _ time.Time) error {
			go func() {
				<-ctx.Done()
				released <- ctx.Err()
			}()
			return nil
		}, false, nil, func(t *testing.T) {
			select {
			case err := <-released:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("left waiter released with %v, want Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a goroutine the store left waiting on Done was never released")
			}
		}},
		{"hard close", long, func(t *testing.T, ctx context.Context, _ time.Time) error {
			<-ctx.Done()
			if err := ctx.Err(); !errors.Is(err, context.Canceled) {
				t.Errorf("Err after hard Close = %v, want Canceled", err)
			}
			return ctx.Err()
		}, true, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entered := make(chan struct{}, 1)
			sent := time.Now() // before the server: its goroutines see it
			srv, addr := startWrapped(t, Options{RequestTimeout: tc.timeout}, func(st *core.Store) Backend {
				return &ctxBackend{Store: st, inspect: func(ctx context.Context) error {
					entered <- struct{}{}
					return tc.inspect(t, ctx, sent)
				}}
			})
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			done := make(chan error, 1)
			t0 := time.Now()
			go func() {
				_, err := c.WriteAt([]byte("inspected"), 0)
				done <- err
			}()
			<-entered
			if tc.close {
				srv.Close()
				<-done // the shutdown status or the dropped connection
				if n := srv.Metrics().responses[StatusShutdown].Value(); n != 1 {
					t.Fatalf("%d requests answered StatusShutdown by a hard Close, want 1", n)
				}
				return
			}
			err = <-done
			if elapsed := time.Since(t0); tc.want != nil && elapsed < tc.timeout {
				t.Errorf("request ended after %v, before its %v deadline", elapsed, tc.timeout)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("write: got %v, want %v", err, tc.want)
			}
			if tc.after != nil {
				tc.after(t)
			}
		})
	}
}

// TestBackpressureBusy fills the in-flight window and checks that the
// next request is rejected with ERR_BUSY instead of queueing, and that
// the window recovers once requests complete.
func TestBackpressureBusy(t *testing.T) {
	const window = 4
	srv, g, addr := startGated(t, Options{MaxInflight: window})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Occupy the whole window with writes parked on the gate.
	done := make(chan error, window)
	for i := 0; i < window; i++ {
		off := int64(i) * (64 << 10) // distinct stripes: no lock coupling
		go func() {
			_, err := c.WriteAt([]byte("held"), off)
			done <- err
		}()
	}
	testutil.Eventually(t, "window to fill", func() bool { return g.blocked.Load() == window })

	// The next request must bounce immediately.
	if _, err := c.WriteAt([]byte("overflow"), 1<<20); !errors.Is(err, ErrBusy) {
		t.Fatalf("request over the window: got %v, want ErrBusy", err)
	}
	if n := srv.Metrics().BusyRejected.Value(); n != 1 {
		t.Fatalf("busy_rejected = %d, want 1", n)
	}

	// Release the gate; the held writes finish, the window frees up.
	close(g.gate)
	for i := 0; i < window; i++ {
		if err := <-done; err != nil {
			t.Fatalf("held write: %v", err)
		}
	}
	if _, err := c.WriteAt([]byte("after"), 1<<20); err != nil {
		t.Fatalf("write after window drained: %v", err)
	}
}

// TestRequestTimeout parks a write past the per-request deadline and
// expects ERR_TIMEOUT while the connection stays healthy.
func TestRequestTimeout(t *testing.T) {
	_, g, addr := startGated(t, Options{RequestTimeout: 30 * time.Millisecond})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.WriteAt([]byte("never lands"), 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("parked write: got %v, want ErrTimeout", err)
	}
	close(g.gate)
	// The connection survives a timed-out request.
	if _, err := c.ReadAt(make([]byte, 8), 0); err != nil {
		t.Fatalf("read after timeout: %v", err)
	}
}

// TestGracefulDrainDeliversInflightResponses starts a slow write, shuts
// the server down mid-flight, and requires the response to arrive
// before the connection closes.
func TestGracefulDrainDeliversInflightResponses(t *testing.T) {
	srv, g, addr := startGated(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	writeDone := make(chan error, 1)
	go func() {
		_, err := c.WriteAt([]byte("in flight during drain"), 8192)
		writeDone <- err
	}()
	testutil.Eventually(t, "write to reach the store", func() bool { return g.blocked.Load() == 1 })

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// Drain must wait for the in-flight write, not abandon it.
	select {
	case err := <-writeDone:
		t.Fatalf("write completed before gate release: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(g.gate)
	if err := <-writeDone; err != nil {
		t.Fatalf("in-flight write during drain: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The write really landed.
	got := make([]byte, 22)
	if _, err := g.Store.ReadAt(got, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("in flight during drain")) {
		t.Fatalf("drained write not durable: %q", got)
	}
	// New connections are refused after drain.
	if _, err := Dial(addr); err == nil {
		t.Fatal("Dial succeeded after Shutdown")
	}
}

// TestHardShutdownCancelsStoreWork expires the drain deadline while a
// request is parked; the base context must cancel it.
func TestHardShutdownCancelsStoreWork(t *testing.T) {
	srv, g, addr := startGated(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	writeDone := make(chan error, 1)
	go func() {
		_, err := c.WriteAt([]byte("doomed"), 0)
		writeDone <- err
	}()
	testutil.Eventually(t, "write to reach the store", func() bool { return g.blocked.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hard Shutdown: got %v, want DeadlineExceeded", err)
	}
	// The parked write was cancelled, not left hanging (the client may
	// see the shutdown status or the dropped connection).
	if err := <-writeDone; err == nil {
		t.Fatal("write succeeded through a hard shutdown")
	}
}

// TestStalledReaderDisconnected pipelines reads on a connection that
// never reads its responses. The socket buffers fill, the reply's write
// deadline expires, and the server must drop that connection — releasing
// the handlers parked on its write lock — rather than let one stalled
// client wedge the shared in-flight window for everyone else.
func TestStalledReaderDisconnected(t *testing.T) {
	srv, _, addr := startServer(t, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour},
		Options{MaxInflight: 512, writeTimeout: 200 * time.Millisecond})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Pin the receive buffer: left to autotune it may grow to tcp_rmem's
	// maximum (32 MiB on some kernels) and absorb every response below,
	// so the server's writer never stalls and nothing is ever cut off.
	if err := nc.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write([]byte(Magic)); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, handshakeReplyLen)
	if _, err := io.ReadFull(nc, reply); err != nil {
		t.Fatal(err)
	}
	// Pipeline far more response bytes (128 × 256 KiB) than the write
	// buffers can absorb, then read nothing.
	var buf []byte
	for i := 0; i < 128; i++ {
		buf = appendRequest(buf[:0], &Request{Op: OpRead, ID: uint64(i + 1), Length: 256 << 10})
		if _, err := nc.Write(buf); err != nil {
			break // the server may already have cut us off
		}
	}

	// The pool must come back: a healthy client completes a round trip
	// well before the 10s deadline.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	data := []byte("pool still alive")
	if _, err := c.WriteAtContext(ctx, data, 0); err != nil {
		t.Fatalf("write while another conn is stalled: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := c.ReadAtContext(ctx, got, 0); err != nil {
		t.Fatalf("read while another conn is stalled: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}

	// And the stalled connection really was severed: only the healthy
	// one stays open (the round trip above can finish before the stalled
	// writer's deadline does, so wait for that rather than start reading
	// and un-stall it), and draining it hits EOF/reset, not the read
	// deadline.
	testutil.Eventually(t, "the stalled connection to close after its write timeout", func() bool { return srv.Metrics().ConnsOpen.Value() <= 1 })
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.Copy(io.Discard, nc)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("stalled connection was never closed by the server")
	}
}

// TestHandshakeRejectsBadMagic ensures a non-protocol client is
// dropped without a reply.
func TestHandshakeRejectsBadMagic(t *testing.T) {
	_, _, addr := startServer(t, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour}, Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("HTTP/1.1")); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if n, err := nc.Read(buf); err == nil || n != 0 {
		t.Fatalf("server replied %d bytes to bad magic (err=%v)", n, err)
	}
}
