package fault

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections and echoes every byte back, recording
// what it received.
type echoServer struct {
	ln net.Listener

	mu  sync.Mutex
	rcv []byte
}

func newEchoServer(t *testing.T) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						s.mu.Lock()
						s.rcv = append(s.rcv, buf[:n]...)
						s.mu.Unlock()
						if _, werr := c.Write(buf[:n]); werr != nil {
							break
						}
					}
					if err != nil {
						break
					}
				}
				c.Close()
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *echoServer) received() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.rcv...)
}

func newTestProxy(t *testing.T, target string) *Proxy {
	t.Helper()
	p, err := NewProxy(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// roundtrip writes msg and reads len(msg) bytes back.
func roundtrip(c net.Conn, msg []byte, timeout time.Duration) ([]byte, error) {
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if _, err := c.Write(msg); err != nil {
		return nil, err
	}
	got := make([]byte, len(msg))
	_, err := io.ReadFull(c, got)
	return got, err
}

func TestProxyForwards(t *testing.T) {
	s := newEchoServer(t)
	p := newTestProxy(t, s.ln.Addr().String())
	c := dialProxy(t, p)
	msg := []byte("hello through the chaos proxy")
	got, err := roundtrip(c, msg, 2*time.Second)
	if err != nil {
		t.Fatalf("roundtrip: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q != %q", got, msg)
	}
	st := p.Stats()
	if st.Conns != 1 || st.BytesUp != int64(len(msg)) || st.BytesDown != int64(len(msg)) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestProxyLatency(t *testing.T) {
	s := newEchoServer(t)
	p := newTestProxy(t, s.ln.Addr().String())
	c := dialProxy(t, p)
	msg := []byte("x")
	if _, err := roundtrip(c, msg, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	p.SetLatency(30*time.Millisecond, 10*time.Millisecond, 0)
	t0 := time.Now()
	if _, err := roundtrip(c, msg, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 40*time.Millisecond {
		t.Fatalf("latency injection missed: roundtrip took %v, want >= 40ms", d)
	}
}

func TestProxyPartitionBlackholeAndRestore(t *testing.T) {
	s := newEchoServer(t)
	p := newTestProxy(t, s.ln.Addr().String())
	c := dialProxy(t, p)
	if _, err := roundtrip(c, []byte("warm"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	p.Partition()
	// The link is up at the TCP level but forwards nothing: the request
	// times out instead of failing fast.
	if _, err := roundtrip(c, []byte("lost"), 100*time.Millisecond); err == nil {
		t.Fatal("roundtrip succeeded through a black-holed proxy")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("want timeout through black hole, got %v", err)
	}
	// A new connection is also accepted, then stalls.
	c2 := dialProxy(t, p)
	if _, err := roundtrip(c2, []byte("also lost"), 100*time.Millisecond); err == nil {
		t.Fatal("new connection forwarded through a black-holed proxy")
	}
	// Restore lets the stalled bytes drain through: the first request's
	// echo finally arrives (4 bytes of "lost", then "also lost" on c2).
	p.Restore()
	got := make([]byte, 4)
	c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read after restore: %v", err)
	}
	if string(got) != "lost" {
		t.Fatalf("after restore got %q, want %q", got, "lost")
	}
}

func TestProxyRefuse(t *testing.T) {
	s := newEchoServer(t)
	p := newTestProxy(t, s.ln.Addr().String())
	c := dialProxy(t, p)
	if _, err := roundtrip(c, []byte("warm"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	p.Refuse()
	// The existing connection was reset.
	if _, err := roundtrip(c, []byte("dead"), time.Second); err == nil {
		t.Fatal("old connection survived Refuse")
	}
	// New connections are torn down at accept: the first read fails fast
	// rather than timing out.
	c2, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err == nil {
		defer c2.Close()
		c2.SetDeadline(time.Now().Add(2 * time.Second))
		c2.Write([]byte("x"))
		if _, rerr := c2.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("read succeeded through a refusing proxy")
		} else if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
			t.Fatalf("refused connection timed out instead of failing fast: %v", rerr)
		}
	}
	if st := p.Stats(); st.Refused == 0 {
		t.Fatalf("no refused connections counted: %+v", st)
	}
	// Restore brings the path back for fresh connections.
	p.Restore()
	c3 := dialProxy(t, p)
	if _, err := roundtrip(c3, []byte("back"), 2*time.Second); err != nil {
		t.Fatalf("roundtrip after restore: %v", err)
	}
}

func TestProxyResetAfterCutsMidStream(t *testing.T) {
	s := newEchoServer(t)
	p := newTestProxy(t, s.ln.Addr().String())
	c := dialProxy(t, p)
	p.ResetAfter(4)
	c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Write([]byte("0123456789")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Only the first 4 bytes crossed; then the connection died.
	buf := make([]byte, 10)
	n, err := io.ReadFull(c, buf)
	if err == nil {
		t.Fatalf("read %d bytes through a reset connection", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(s.received()) >= 4 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.received(); len(got) != 4 || string(got) != "0123" {
		t.Fatalf("server received %q, want exactly %q", got, "0123")
	}
	if st := p.Stats(); st.Resets == 0 {
		t.Fatalf("no resets counted: %+v", st)
	}
}

func TestProxyTruncateNext(t *testing.T) {
	s := newEchoServer(t)
	p := newTestProxy(t, s.ln.Addr().String())
	c := dialProxy(t, p)
	p.TruncateNext(3)
	c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Write([]byte("abcdefgh")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := io.ReadFull(c, make([]byte, 8)); err == nil {
		t.Fatal("full echo came back through a truncated frame")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(s.received()) >= 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.received(); string(got) != "abc" {
		t.Fatalf("server received %q, want truncated %q", got, "abc")
	}
	if st := p.Stats(); st.Truncations != 1 {
		t.Fatalf("truncations = %d, want 1 (%+v)", st.Truncations, st)
	}
}

func TestProxyKillConns(t *testing.T) {
	s := newEchoServer(t)
	p := newTestProxy(t, s.ln.Addr().String())
	c := dialProxy(t, p)
	if _, err := roundtrip(c, []byte("warm"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	p.KillConns()
	if _, err := roundtrip(c, []byte("dead"), time.Second); err == nil {
		t.Fatal("connection survived KillConns")
	}
	// The path itself is healthy: a redial works immediately.
	c2 := dialProxy(t, p)
	if _, err := roundtrip(c2, []byte("back"), 2*time.Second); err != nil {
		t.Fatalf("redial after KillConns: %v", err)
	}
}
