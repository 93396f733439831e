package fault

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Proxy is a TCP chaos proxy: it listens on a loopback port, forwards
// every connection to a fixed target (an afraidd listener), and injects
// network faults into the stream — the network-layer sibling of Device.
// Where Device corrupts what a store *persists*, Proxy corrupts how a
// client *reaches* it: partitions (accept-then-black-hole, or full
// connection refusal), one-way or symmetric latency with seeded jitter,
// mid-frame connection resets, and byte-truncation of in-flight frames.
// A server.Client dialed through a Proxy therefore exercises its genuine
// dial/read/write/redial paths under failure, instead of having errors
// handed to it by an interface shim.
//
// All switches take effect immediately on both existing and future
// connections and are cleared together by Restore. Methods are safe for
// concurrent use.
type Proxy struct {
	target string
	ln     net.Listener

	mu        sync.Mutex
	rng       *rand.Rand    // jitter; seeded so schedules replay
	blackhole bool          // accept, then forward nothing (stall)
	restored  chan struct{} // closed by Restore: wakes the stalled forwards
	refuse    bool          // close new connections on accept
	latUp     time.Duration
	latDown   time.Duration
	jitter    time.Duration
	resetIn   int64 // RST all conns after this many more forwarded bytes; <0 off
	truncNext int64 // truncate the next client->server chunk to this; <0 off
	conns     map[*proxyPair]struct{}
	stats     ProxyStats
	closed    bool

	wg sync.WaitGroup
}

// ProxyStats counts traffic and injections through the proxy.
type ProxyStats struct {
	Conns       int64 // connections accepted and forwarded
	Refused     int64 // connections closed at accept by Refuse
	BytesUp     int64 // client -> server bytes handed to the forwarding write
	BytesDown   int64 // server -> client bytes handed to the forwarding write
	Resets      int64 // connections killed mid-stream (RST where possible)
	Truncations int64 // frames cut short by TruncateNext
}

// proxyPair is one forwarded connection: the accepted client side and
// the dialed server side, closed as a unit.
type proxyPair struct {
	client net.Conn
	server net.Conn
	once   sync.Once
	dead   chan struct{} // closed by kill: wakes the pair's stalled forwards
}

// kill tears the pair down. rst requests an abortive close (RST) on the
// client side so the peer sees a reset mid-frame, not a graceful EOF.
func (pp *proxyPair) kill(rst bool) {
	pp.once.Do(func() {
		if rst {
			if tc, ok := pp.client.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			if tc, ok := pp.server.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
		}
		pp.client.Close()
		pp.server.Close()
		close(pp.dead)
	})
}

// NewProxy starts a proxy forwarding to target on an ephemeral loopback
// port. The seed drives jitter; identical seeds and traffic replay the
// same delays.
func NewProxy(target string, seed int64) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fault: proxy listen: %w", err)
	}
	p := &Proxy{
		target:    target,
		ln:        ln,
		rng:       rand.New(rand.NewSource(seed)),
		restored:  make(chan struct{}),
		resetIn:   -1,
		truncNext: -1,
		conns:     make(map[*proxyPair]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what clients dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Partition black-holes the link: new connections are accepted and
// existing ones stay open, but no byte is forwarded in either direction
// until Restore — the "switch port wedged" partition where TCP connects
// fine and then every request times out.
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.blackhole = true
	p.mu.Unlock()
}

// Refuse hard-partitions the link: existing connections are reset and
// new ones are closed at accept — the "machine unplugged" partition
// where dials fail fast.
func (p *Proxy) Refuse() {
	p.mu.Lock()
	p.refuse = true
	p.mu.Unlock()
	p.KillConns()
}

// SetLatency adds per-chunk delay: up on client->server traffic, down
// on server->client, each plus a uniform [0, jitter) draw from the
// seeded generator. Zero disables a direction.
func (p *Proxy) SetLatency(up, down, jitter time.Duration) {
	p.mu.Lock()
	p.latUp, p.latDown, p.jitter = up, down, jitter
	p.mu.Unlock()
}

// ResetAfter arms a mid-stream reset: after n more forwarded bytes
// (both directions pooled) every connection is killed with an abortive
// close, so a frame in flight is cut mid-body. n<0 disarms.
func (p *Proxy) ResetAfter(n int64) {
	p.mu.Lock()
	p.resetIn = n
	p.mu.Unlock()
}

// TruncateNext arms a frame truncation: the next client->server chunk
// forwards only its first n bytes, then the connection is reset — the
// peer sees a syntactically broken frame, not just a dropped one.
func (p *Proxy) TruncateNext(n int64) {
	p.mu.Lock()
	p.truncNext = n
	p.mu.Unlock()
}

// Restore clears every fault switch. Existing connections resume
// forwarding; stalled requests complete if the client is still waiting.
func (p *Proxy) Restore() {
	p.mu.Lock()
	if p.blackhole {
		close(p.restored)
		p.restored = make(chan struct{})
	}
	p.blackhole, p.refuse = false, false
	p.latUp, p.latDown, p.jitter = 0, 0, 0
	p.resetIn, p.truncNext = -1, -1
	p.mu.Unlock()
}

// KillConns resets every active connection (abortive close). New
// connections are still accepted unless Refuse is in effect.
func (p *Proxy) KillConns() {
	p.mu.Lock()
	pairs := make([]*proxyPair, 0, len(p.conns))
	for pp := range p.conns {
		pairs = append(pairs, pp)
	}
	if len(pairs) > 0 {
		p.stats.Resets += int64(len(pairs))
	}
	p.mu.Unlock()
	for _, pp := range pairs {
		pp.kill(true)
	}
}

// Stats snapshots the proxy's counters.
func (p *Proxy) Stats() ProxyStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close stops the listener and tears down every connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.KillConns()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		refuse, closed := p.refuse, p.closed
		p.mu.Unlock()
		if refuse || closed {
			// Counted before the close the client can observe, so a
			// Stats() taken after its read fails already sees it.
			p.mu.Lock()
			p.stats.Refused++
			p.mu.Unlock()
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			c.Close()
			continue
		}
		s, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			c.Close()
			continue
		}
		pp := &proxyPair{client: c, server: s, dead: make(chan struct{})}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			pp.kill(true)
			continue
		}
		p.conns[pp] = struct{}{}
		p.stats.Conns++
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(pp, c, s, true)
		go p.pump(pp, s, c, false)
	}
}

// pump copies src to dst in bounded chunks, consulting the fault gate
// before each forward. up marks the client->server direction (the one
// TruncateNext targets).
func (p *Proxy) pump(pp *proxyPair, src, dst net.Conn, up bool) {
	defer p.wg.Done()
	defer func() {
		pp.kill(false)
		p.mu.Lock()
		delete(p.conns, pp)
		p.mu.Unlock()
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.forward(pp, dst, buf[:n], up) {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// forward applies the gate to one chunk and writes it. It returns false
// when the connection was killed (reset, truncation) or the write
// failed.
func (p *Proxy) forward(pp *proxyPair, dst net.Conn, chunk []byte, up bool) bool {
	// Black hole: stall until Restore, or until the pair dies (Close
	// kills every pair).
	p.mu.Lock()
	for p.blackhole {
		restored := p.restored
		p.mu.Unlock()
		select {
		case <-restored:
		case <-pp.dead:
			return false
		}
		p.mu.Lock()
	}
	lat := p.latDown
	if up {
		lat = p.latUp
	}
	if p.jitter > 0 {
		lat += time.Duration(p.rng.Int63n(int64(p.jitter)))
	}
	trunc := int64(-1)
	if up && p.truncNext >= 0 {
		trunc = p.truncNext
		p.truncNext = -1
		p.stats.Truncations++
	}
	reset := false
	if p.resetIn >= 0 {
		if p.resetIn < int64(len(chunk)) {
			chunk = chunk[:p.resetIn]
			reset = true
			p.resetIn = -1
		} else {
			p.resetIn -= int64(len(chunk))
		}
	}
	p.mu.Unlock()

	if trunc >= 0 {
		if trunc < int64(len(chunk)) {
			chunk = chunk[:trunc]
		}
		reset = true
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	if len(chunk) > 0 {
		// Counted before the write: the peer can act on the bytes (and a
		// test can read Stats) the moment they land.
		p.mu.Lock()
		if up {
			p.stats.BytesUp += int64(len(chunk))
		} else {
			p.stats.BytesDown += int64(len(chunk))
		}
		p.mu.Unlock()
		if _, err := dst.Write(chunk); err != nil {
			return false
		}
	}
	if reset {
		p.mu.Lock()
		p.stats.Resets++
		p.mu.Unlock()
		pp.kill(true)
		return false
	}
	return true
}
