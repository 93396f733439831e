package fault

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// Link is the fault gate on a client's connections to one node, the
// network-layer sibling of Device: Dial wraps the client's own TCP
// connection to the node, so every byte crosses the gate in the client's
// own Read and Write, with no relay, and a server.Client over it runs its
// genuine dial/read/write/redial paths under partitions, refusal, latency
// with seeded jitter, mid-frame resets and cut frames. The switches act at
// once on every connection; Restore clears them all. Methods are safe for
// concurrent use. The transport is TCP: over an unbuffered net.Pipe, a
// reply nobody is reading yet parks the node's handler while it holds the
// connection's write lock.
type Link struct {
	target string
	wait   time.Duration // Restore's bound on the node ending a held connection

	mu        sync.Mutex
	rng       *rand.Rand // jitter; seeded so schedules replay
	held      bool       // Partition: what clients write stays in the link
	refuse    bool       // dials fail
	latUp     time.Duration
	latDown   time.Duration
	jitter    time.Duration
	resetIn   int64 // reset after this many more bytes cross; <0 off
	truncNext int64 // cut the next client write to this many bytes, then reset; <0 off
	conns     map[*linkConn]struct{}
	stats     LinkStats
}

// LinkStats counts traffic and injections through a link. Each counter
// moves before the event a client sees.
type LinkStats struct {
	Conns       int64 // connections dialed
	Refused     int64 // dials failed by Refuse
	BytesUp     int64 // client -> node bytes handed to the connection
	BytesDown   int64 // node -> client bytes handed to the client
	Resets      int64 // connections killed mid-stream (RST)
	Truncations int64 // frames cut short by TruncateNext
	RestoreCuts int64 // held connections the node did not end within Restore's wait
}

// NewLink returns a link to the node listening at target. The seed
// drives jitter; identical seeds and traffic replay the same delays.
func NewLink(target string, seed int64) *Link {
	return &Link{target: target, wait: 5 * time.Second, rng: rand.New(rand.NewSource(seed)),
		resetIn: -1, truncNext: -1, conns: make(map[*linkConn]struct{})}
}

// Dial connects to the node within timeout and returns the connection
// behind the gate. Under Refuse it fails.
func (l *Link) Dial(timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", l.target, timeout)
	if err != nil {
		return nil, err
	}
	c := &linkConn{Conn: nc, l: l}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.refuse {
		l.stats.Refused++
		nc.Close()
		return nil, fmt.Errorf("fault: link to %s refuses connections", l.target)
	}
	l.conns[c] = struct{}{}
	l.stats.Conns++
	return c, nil
}

// Partition cuts the link without closing it: dials connect, but what
// clients write is held in the link until Restore, so nothing new reaches
// the node or comes back — the "switch port wedged" partition where TCP
// connects fine and then every request times out.
func (l *Link) Partition() {
	l.mu.Lock()
	l.held = true
	l.mu.Unlock()
}

// Refuse hard-partitions the link: connections are reset and dials fail
// fast — the "machine unplugged" partition.
func (l *Link) Refuse() {
	l.mu.Lock()
	l.refuse = true
	l.mu.Unlock()
	l.KillConns()
}

// SetLatency delays each client write by up and each read by down, each
// plus a uniform [0, jitter) draw from the seeded generator.
func (l *Link) SetLatency(up, down, jitter time.Duration) {
	l.mu.Lock()
	l.latUp, l.latDown, l.jitter = up, down, jitter
	l.mu.Unlock()
}

// ResetAfter arms a mid-stream reset: once n more bytes have crossed
// (both directions pooled), the connection they cross on is killed with
// an abortive close, so a frame in flight is cut mid-body. n<0 disarms.
func (l *Link) ResetAfter(n int64) {
	l.mu.Lock()
	l.resetIn = n
	l.mu.Unlock()
}

// TruncateNext arms a frame truncation: the next client write crosses
// with only its first n bytes, then its connection is reset — the node
// sees a syntactically broken frame, not just a dropped one.
func (l *Link) TruncateNext(n int64) {
	l.mu.Lock()
	l.truncNext = n
	l.mu.Unlock()
}

// Restore clears every switch and ends what a partition held: the bytes
// it held from each client cross in order, each connection that carried
// some is half-closed, and Restore returns once the node has ended every
// such connection. A node closes a connection only after answering every
// frame it read, so a held write — a zombie, whose client may have given
// up and closed — has landed by then. A read the client has out fails;
// what the node sent back is kept for its next reads, then end of stream.
// A connection the node does not end within the link's wait is cut,
// counted and reported.
func (l *Link) Restore() error {
	deadline := time.Now().Add(l.wait)
	l.mu.Lock()
	var ending []*linkConn
	for c := range l.conns {
		if len(c.out) > 0 { // delivered under mu, so no later write of the client's overtakes them
			l.stats.BytesUp += int64(len(c.out))
			c.SetReadDeadline(time.Now()) // the connection is ending: no reply may start anything on it
			c.SetWriteDeadline(deadline)
			_, err := c.Conn.Write(c.out)
			if hc, ok := c.Conn.(interface{ CloseWrite() error }); ok && err == nil {
				hc.CloseWrite()
			}
			ending = append(ending, c)
		}
	}
	l.held, l.refuse, l.latUp, l.latDown, l.jitter = false, false, 0, 0, 0
	l.resetIn, l.truncNext = -1, -1
	l.mu.Unlock()
	cut := 0
	for _, c := range ending {
		if !c.drain(deadline) {
			cut++
		}
	}
	if cut > 0 {
		return fmt.Errorf("fault: link to %s: %d held connections cut, not ended by the node within %v", l.target, cut, l.wait)
	}
	return nil
}

// KillConns resets every connection (abortive close), dropping what a
// partition holds on them.
func (l *Link) KillConns() {
	l.mu.Lock()
	conns := make([]*linkConn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.stats.Resets += int64(len(conns))
	l.mu.Unlock()
	for _, c := range conns {
		c.end(true)
	}
}

// Stats snapshots the link's counters.
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// cross takes n bytes one way through the switches: how many cross before
// an armed reset fires, whether it does, and the delay, lat plus jitter.
// Caller holds mu.
func (l *Link) cross(n int, lat time.Duration) (int, bool, time.Duration) {
	if l.jitter > 0 {
		lat += time.Duration(l.rng.Int63n(int64(l.jitter)))
	}
	if l.resetIn < 0 || l.resetIn >= int64(n) {
		l.resetIn = max(l.resetIn-int64(n), -1)
		return n, false, lat
	}
	n, l.resetIn = int(l.resetIn), -1
	l.stats.Resets++
	return n, true, lat
}

// linkConn is one client connection behind a Link's gate.
type linkConn struct {
	net.Conn // the client's own connection to the node
	l        *Link
	endOnce  sync.Once

	// Guarded by l.mu.
	out    []byte // what a partition held from the client, until the node has ended the connection
	closed bool   // the client closed it

	// Guarded by rmu, held by one reader of the node's side at a time: the
	// client or Restore's drain.
	rmu sync.Mutex
	in  []byte // what the drain read, for the client
	eof error  // the error that ended the node's side, once seen
}

func (c *linkConn) Read(p []byte) (n int, err error) {
	c.rmu.Lock()
	switch {
	case len(c.in) > 0:
		n = copy(p, c.in)
		c.in = c.in[n:]
	case c.eof != nil:
		err = c.eof
	default:
		if n, err = c.Conn.Read(p); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			c.eof = err
		}
	}
	c.rmu.Unlock()
	l := c.l
	l.mu.Lock()
	n, reset, lat := l.cross(n, l.latDown)
	l.stats.BytesDown += int64(n)
	l.mu.Unlock()
	time.Sleep(lat)
	if reset {
		c.end(true)
		err = cmp.Or(err, error(net.ErrClosed))
	}
	return n, err
}

func (c *linkConn) Write(p []byte) (int, error) {
	l := c.l
	l.mu.Lock()
	if c.closed {
		l.mu.Unlock()
		return 0, net.ErrClosed
	}
	if l.held {
		c.out = append(c.out, p...)
		l.mu.Unlock()
		return len(p), nil
	}
	n, reset, lat := l.cross(len(p), l.latUp)
	if l.truncNext >= 0 {
		if !reset {
			l.stats.Resets++
		}
		n, reset, l.truncNext = min(n, int(l.truncNext)), true, -1
		l.stats.Truncations++
	}
	l.stats.BytesUp += int64(n)
	l.mu.Unlock()
	time.Sleep(lat)
	if !reset {
		return c.Conn.Write(p)
	}
	// The rest is lost on the wire: the client handed it over and learns
	// of the reset from its next read.
	c.Conn.Write(p[:n])
	c.end(true)
	return len(p), nil
}

// Close closes the client's side. A connection carrying bytes a
// partition holds stays open to the node until Restore has delivered
// them and the node has ended it, as a socket closed with data in flight
// does.
func (c *linkConn) Close() error {
	l := c.l
	l.mu.Lock()
	keep := len(c.out) > 0
	c.closed = true
	if keep && l.held {
		c.Conn.SetReadDeadline(time.Now()) // release a read the client has out
	}
	l.mu.Unlock()
	if !keep {
		c.end(false)
	}
	return nil
}

// drain reads the node's side until the node ends the connection, by
// deadline, and reports whether it did. One it did not is cut and
// counted.
func (c *linkConn) drain(deadline time.Time) bool {
	c.rmu.Lock()
	c.SetReadDeadline(deadline)
	if c.eof == nil {
		b, err := io.ReadAll(c.Conn)
		c.in, c.eof = append(c.in, b...), cmp.Or(err, io.EOF)
	}
	cut := errors.Is(c.eof, os.ErrDeadlineExceeded)
	c.rmu.Unlock()
	c.l.mu.Lock()
	c.out = nil
	closed := c.closed
	if cut {
		c.l.stats.RestoreCuts++
	}
	c.l.mu.Unlock()
	if cut || closed {
		c.end(cut)
	}
	return !cut
}

// end closes the connection to the node, abortively with rst, and drops
// it from the link.
func (c *linkConn) end(rst bool) {
	c.endOnce.Do(func() {
		if tc, ok := c.Conn.(*net.TCPConn); ok && rst {
			tc.SetLinger(0)
		}
		c.Conn.Close()
		c.l.mu.Lock()
		delete(c.l.conns, c)
		c.l.mu.Unlock()
	})
}
