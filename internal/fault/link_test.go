package fault

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"afraid/internal/testutil"
)

// echoServer accepts connections and echoes every byte back, recording
// what it received and how many connections it has closed. Like a node,
// it closes a connection only after answering everything it read.
type echoServer struct {
	ln net.Listener

	mu     sync.Mutex
	rcv    []byte
	closed int
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
				s.mu.Lock()
				s.closed++ // before the close the client can see
				s.mu.Unlock()
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

func (s *echoServer) closes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func newTestLink(t *testing.T, target string) *Link {
	t.Helper()
	l := NewLink(target, 1)
	t.Cleanup(l.KillConns)
	return l
}

func dialLink(t *testing.T, l *Link) net.Conn {
	t.Helper()
	c, err := l.Dial(2 * time.Second)
	if err != nil {
		t.Fatalf("dial link: %v", err)
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

func TestLinkForwards(t *testing.T) {
	s := newEchoServer(t)
	l := newTestLink(t, s.ln.Addr().String())
	c := dialLink(t, l)
	msg := []byte("hello through the chaos link")
	got, err := roundtrip(c, msg, 2*time.Second)
	if err != nil {
		t.Fatalf("roundtrip: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q != %q", got, msg)
	}
	st := l.Stats()
	if st.Conns != 1 || st.BytesUp != int64(len(msg)) || st.BytesDown != int64(len(msg)) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLinkLatency(t *testing.T) {
	s := newEchoServer(t)
	l := newTestLink(t, s.ln.Addr().String())
	c := dialLink(t, l)
	msg := []byte("x")
	if _, err := roundtrip(c, msg, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	l.SetLatency(30*time.Millisecond, 10*time.Millisecond, 0)
	t0 := time.Now()
	if _, err := roundtrip(c, msg, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 40*time.Millisecond {
		t.Fatalf("latency injection missed: roundtrip took %v, want >= 40ms", d)
	}
}

func TestLinkPartitionHoldsAndRestore(t *testing.T) {
	s := newEchoServer(t)
	l := newTestLink(t, s.ln.Addr().String())
	c := dialLink(t, l)
	if _, err := roundtrip(c, []byte("warm"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	l.Partition()
	// The connection is up at the TCP level but nothing crosses: the
	// request times out instead of failing fast.
	if _, err := roundtrip(c, []byte("lost"), 100*time.Millisecond); err == nil {
		t.Fatal("roundtrip succeeded through a partitioned link")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("want timeout through the partition, got %v", err)
	}
	// A new connection also connects, then stalls.
	c2 := dialLink(t, l)
	if _, err := roundtrip(c2, []byte("also lost"), 100*time.Millisecond); err == nil {
		t.Fatal("new connection crossed a partitioned link")
	}
	// Restore lets the held bytes through: the first request's echo
	// finally arrives (4 bytes of "lost", then "also lost" on c2).
	if err := l.Restore(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read after restore: %v", err)
	}
	if string(got) != "lost" {
		t.Fatalf("after restore got %q, want %q", got, "lost")
	}
}

// A write a partition held, on a connection its client has since closed
// — a zombie — has reached the node, and the node has closed that
// connection, by the time Restore returns: a heal that starts after
// Restore cannot be overtaken by it.
func TestLinkRestoreLandsHeldWrites(t *testing.T) {
	s := newEchoServer(t)
	l := newTestLink(t, s.ln.Addr().String())
	c, err := l.Dial(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := roundtrip(c, []byte("warm"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	l.Partition()
	if _, err := c.Write([]byte("zombie")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // the client gives up on it
		t.Fatal(err)
	}
	if got := s.received(); string(got) != "warm" {
		t.Fatalf("node received %q through the partition", got)
	}
	if err := l.Restore(); err != nil {
		t.Fatal(err)
	}
	if got := s.received(); string(got) != "warmzombie" {
		t.Fatalf("node received %q when Restore returned, want %q", got, "warmzombie")
	}
	if n := s.closes(); n != 1 {
		t.Fatalf("node closed %d connections when Restore returned, want 1", n)
	}
	if st := l.Stats(); st.BytesUp != int64(len("warmzombie")) || st.RestoreCuts != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// Restore's wait is bounded: a held connection the node never ends is cut
// when the wait runs out, counted, and reported.
func TestLinkRestoreCutsWhatTheNodeNeverEnds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	wedged := make(chan net.Conn, 1)
	go func() { // accepts, then neither reads nor closes
		if c, err := ln.Accept(); err == nil {
			wedged <- c
		}
	}()
	l := newTestLink(t, ln.Addr().String())
	l.wait = 50 * time.Millisecond
	c := dialLink(t, l)
	t.Cleanup(func() { (<-wedged).Close() })
	l.Partition()
	if _, err := c.Write([]byte("never answered")); err != nil {
		t.Fatal(err)
	}
	if err := l.Restore(); err == nil {
		t.Fatal("Restore returned nil over a connection the node never ended")
	}
	if st := l.Stats(); st.RestoreCuts != 1 {
		t.Fatalf("restore cuts = %d, want 1 (%+v)", st.RestoreCuts, st)
	}
	c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded on a cut connection")
	}
}

func TestLinkRefuse(t *testing.T) {
	s := newEchoServer(t)
	l := newTestLink(t, s.ln.Addr().String())
	c := dialLink(t, l)
	if _, err := roundtrip(c, []byte("warm"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	l.Refuse()
	// The existing connection was reset.
	if _, err := roundtrip(c, []byte("dead"), time.Second); err == nil {
		t.Fatal("old connection survived Refuse")
	}
	// A new dial fails fast rather than timing out, and is counted by then.
	t0 := time.Now()
	if c2, err := l.Dial(2 * time.Second); err == nil {
		c2.Close()
		t.Fatal("dial succeeded through a refusing link")
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("refused dial took %v instead of failing fast", d)
	}
	if st := l.Stats(); st.Refused == 0 {
		t.Fatalf("no refused connections counted: %+v", st)
	}
	// Restore brings the path back for fresh connections.
	if err := l.Restore(); err != nil {
		t.Fatal(err)
	}
	c3 := dialLink(t, l)
	if _, err := roundtrip(c3, []byte("back"), 2*time.Second); err != nil {
		t.Fatalf("roundtrip after restore: %v", err)
	}
}

func TestLinkResetAfterCutsMidStream(t *testing.T) {
	s := newEchoServer(t)
	l := newTestLink(t, s.ln.Addr().String())
	c := dialLink(t, l)
	l.ResetAfter(4)
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
	if st := l.Stats(); st.Resets == 0 {
		t.Fatalf("no resets counted: %+v", st)
	}
	testutil.Eventually(t, "the node to receive what crossed", func() bool { return len(s.received()) >= 4 })
	if got := s.received(); len(got) != 4 || string(got) != "0123" {
		t.Fatalf("node received %q, want exactly %q", got, "0123")
	}
}

func TestLinkTruncateNext(t *testing.T) {
	s := newEchoServer(t)
	l := newTestLink(t, s.ln.Addr().String())
	c := dialLink(t, l)
	l.TruncateNext(3)
	c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Write([]byte("abcdefgh")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := io.ReadFull(c, make([]byte, 8)); err == nil {
		t.Fatal("full echo came back through a truncated frame")
	}
	if st := l.Stats(); st.Truncations != 1 {
		t.Fatalf("truncations = %d, want 1 (%+v)", st.Truncations, st)
	}
	testutil.Eventually(t, "the node to receive what crossed", func() bool { return len(s.received()) >= 3 })
	if got := s.received(); string(got) != "abc" {
		t.Fatalf("node received %q, want truncated %q", got, "abc")
	}
}

func TestLinkKillConns(t *testing.T) {
	s := newEchoServer(t)
	l := newTestLink(t, s.ln.Addr().String())
	c := dialLink(t, l)
	if _, err := roundtrip(c, []byte("warm"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	l.KillConns()
	if _, err := roundtrip(c, []byte("dead"), time.Second); err == nil {
		t.Fatal("connection survived KillConns")
	}
	// The path itself is healthy: a redial works immediately.
	c2 := dialLink(t, l)
	if _, err := roundtrip(c2, []byte("back"), 2*time.Second); err != nil {
		t.Fatalf("redial after KillConns: %v", err)
	}
}
