package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"afraid/internal/bufpool"
	"afraid/internal/core"
)

// Backend is what the service needs from a store: the four data-path
// calls, the capacity, and one stats method. *core.Store and
// *tier.Store satisfy it; tests substitute gated fakes to force
// timeouts and backpressure.
//
// ReadContext and WriteContext must not retain p, or any slice of it,
// past their return: p is a pooled buffer the server hands to the next
// frame as soon as the call comes back.
type Backend interface {
	ReadContext(ctx context.Context, p []byte, off int64) (int, error)
	WriteContext(ctx context.Context, p []byte, off int64) (int, error)
	FlushContext(ctx context.Context) error
	ParityPointContext(ctx context.Context, off, length int64) error
	Capacity() int64
	// StatMap returns a fresh flat snapshot of the store's counters
	// under dotted keys prefixed by the layer that counts them
	// ("core.dirty_stripes", "tier.promotes"): bools as 0/1, durations
	// as _ns, lists as a count plus a _mask. The server adds its own
	// "server." keys to the map and sends it as the STAT payload.
	StatMap() map[string]int64
}

// Options configures a Server. The zero value picks sensible defaults.
type Options struct {
	// MaxInflight bounds accepted-but-unfinished requests across all
	// connections (default 256), and so the goroutines applying them
	// to the store. Beyond it the server answers ERR_BUSY instead of
	// buffering without bound.
	MaxInflight int
	// MaxPayload bounds one frame's data (default DefaultMaxPayload),
	// the STAT snapshot's few KiB included.
	MaxPayload uint32
	// RequestTimeout is the per-request deadline (default 30s); it
	// cancels store work mid-request via context.
	RequestTimeout time.Duration
	// WriteTimeout bounds each socket write of response frames
	// (default 30s). A client that pipelines requests but stops
	// reading responses would otherwise block the connection's flusher,
	// fill its reply queue, and park its handlers in reply, each on an
	// in-flight token; on expiry the connection is closed instead.
	WriteTimeout time.Duration
	// CoalesceLimit caps the bytes merged from adjacent pipelined
	// WRITEs into one store call (default 256 KiB; negative disables).
	// Only frames already buffered on the connection are merged, so
	// coalescing never adds latency.
	CoalesceLimit int
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.MaxPayload == 0 {
		o.MaxPayload = DefaultMaxPayload
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.CoalesceLimit == 0 {
		o.CoalesceLimit = 256 << 10
	}
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// task is one unit of store work: a request, which carries the first
// frame ID it acknowledges, plus the IDs of the adjacent writes
// coalesced onto it.
type task struct {
	req    Request
	merged []uint64
	// frame is the pooled buffer a WRITE's payload was read into, kept
	// apart from req.Data because coalescing may grow Data into a new
	// array. handle returns it once the store call is back.
	frame []byte
	start time.Time
}

// Server serves the block protocol over accepted connections.
type Server struct {
	store   Backend
	opts    Options
	metrics *Metrics

	tokens chan struct{} // in-flight semaphore; a handler holds one from frame to reply

	baseCtx context.Context // cancelled on hard close
	cancel  context.CancelFunc

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	draining  bool

	connWG sync.WaitGroup
}

// New builds a server over the store.
func New(store Backend, opts Options) *Server {
	opts.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:     store,
		opts:      opts,
		metrics:   newMetrics(),
		tokens:    make(chan struct{}, opts.MaxInflight),
		baseCtx:   ctx,
		cancel:    cancel,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
	}
	return s
}

// Metrics returns the server's metric tree.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Stat returns the snapshot a STAT request is answered with: the
// store's own keys plus the server's "server." entries.
func (s *Server) Stat() Stat {
	st := Stat(s.store.StatMap())
	st["server.capacity"] = s.store.Capacity()
	s.metrics.stat(st)
	return st
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections until the listener fails or the server is
// shut down, then returns ErrServerClosed.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	}
	s.listeners[lis] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, lis)
		s.mu.Unlock()
	}()
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		c := s.newConn(nc)
		if c == nil {
			nc.Close()
			continue
		}
		go c.serve()
	}
}

// newConn registers a connection, or rejects it when draining.
func (s *Server) newConn(nc net.Conn) *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil
	}
	c := &conn{srv: s, nc: nc, br: bufio.NewReaderSize(nc, readBufSize)}
	c.room.L = &c.wmu
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.metrics.ConnsOpen.Add(1)
	s.metrics.ConnsTotal.Add(1)
	return c
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.metrics.ConnsOpen.Add(-1)
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Shutdown drains gracefully: stop accepting, unblock connection
// readers at the next frame boundary, finish every in-flight request,
// flush its response, then close. If ctx expires first, connections and
// outstanding store work are cancelled hard and ctx's error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	listeners := make([]net.Listener, 0, len(s.listeners))
	for lis := range s.listeners {
		listeners = append(listeners, lis)
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if first {
		for _, lis := range listeners {
			lis.Close()
		}
		for _, c := range conns {
			// Unblocks the reader; responses still flow until the
			// connection's in-flight work has been answered.
			c.nc.SetReadDeadline(time.Now())
		}
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel() // cancel in-store work
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close shuts down immediately, cancelling in-flight work.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
	return nil
}

// handle is one request from frame to reply, on its own goroutine: the
// store call, the response for every frame ID the task acknowledges,
// then the in-flight token goes back.
func (c *conn) handle(t *task) {
	s := c.srv
	queued := time.Since(t.start) // dispatch -> this goroutine running
	ctx, cancel := context.WithTimeout(s.baseCtx, s.opts.RequestTimeout)
	resp := s.apply(ctx, &t.req)
	cancel()
	bufpool.Put(t.frame) // Backend does not retain it
	d := time.Since(t.start)
	s.metrics.task(&t.req, resp.Status, queued, d)
	for range 1 + len(t.merged) {
		s.metrics.response(resp.Op, resp.Status, d)
	}
	resp.ID = t.req.ID
	c.reply(resp, t.merged...)
	s.metrics.Inflight.Add(-1)
	<-s.tokens
	c.pending.Done()
}

// rangeOK reports whether [off, off+length) lies within capacity,
// without computing off+length (which overflows for off near MaxInt64
// — DecodeRequest admits any offset up to MaxInt64).
func rangeOK(off, length, capacity int64) bool {
	return off >= 0 && length >= 0 && length <= capacity && off <= capacity-length
}

// apply performs one request against the store.
func (s *Server) apply(ctx context.Context, r *Request) Response {
	resp := Response{Op: r.Op, Status: StatusOK}
	cap := s.store.Capacity()
	switch r.Op {
	case OpRead:
		if !rangeOK(r.Off, int64(r.Length), cap) {
			return s.reject(resp, cap, r)
		}
		// Read payloads are the server's hottest allocation; borrow the
		// buffer from the pool and let the connection's flusher return it
		// once the response frame is on the wire.
		buf := bufpool.Get(int(r.Length))
		if _, err := s.store.ReadContext(ctx, buf, r.Off); err != nil {
			bufpool.Put(buf)
			return s.fail(resp, err)
		}
		resp.Data = buf
		resp.pooled = true
		s.metrics.BytesRead.Add(int64(r.Length))
	case OpWrite:
		if !rangeOK(r.Off, int64(len(r.Data)), cap) {
			return s.reject(resp, cap, r)
		}
		if _, err := s.store.WriteContext(ctx, r.Data, r.Off); err != nil {
			return s.fail(resp, err)
		}
		s.metrics.BytesWritten.Add(int64(len(r.Data)))
	case OpFlush:
		if err := s.store.FlushContext(ctx); err != nil {
			return s.fail(resp, err)
		}
	case OpScrub:
		if !rangeOK(r.Off, int64(r.Length), cap) {
			return s.reject(resp, cap, r)
		}
		if err := s.store.ParityPointContext(ctx, r.Off, int64(r.Length)); err != nil {
			return s.fail(resp, err)
		}
	case OpStat:
		resp.Data = appendStat(nil, s.Stat())
	default:
		resp.Status = StatusBadRequest
		resp.Data = []byte(fmt.Sprintf("unknown op %d", uint8(r.Op)))
	}
	return resp
}

func (s *Server) reject(resp Response, cap int64, r *Request) Response {
	resp.Status = StatusBadRequest
	resp.Data = []byte(fmt.Sprintf("range off=%d length=%d outside capacity %d", r.Off, r.Length, cap))
	return resp
}

// fail maps a store error onto a response status.
func (s *Server) fail(resp Response, err error) Response {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		resp.Status = StatusTimeout
	case errors.Is(err, context.Canceled):
		resp.Status = StatusShutdown
	case errors.Is(err, core.ErrDataLoss):
		resp.Status = StatusDataLoss
	default:
		resp.Status = StatusIO
	}
	resp.Data = []byte(err.Error())
	return resp
}

// conn is one client connection: a reader (the serve goroutine) that
// starts one handler goroutine per request, and a reply queue the
// handlers write out themselves, so responses return in completion
// order, not issue order.
type conn struct {
	srv     *Server
	nc      net.Conn
	br      *bufio.Reader
	pending sync.WaitGroup // handlers started and not yet returned

	wmu      sync.Mutex // guards queue, flushing and broken
	room     sync.Cond  // on wmu: the flusher took the queue, or the connection broke
	queue    []Response // replies waiting for the flusher
	flushing bool       // some goroutine in reply is writing to the socket
	broken   bool       // a write failed; replies are dropped
	taken    []Response // the flusher's alone: the queue it is writing out,
	batch    batch      // and the socket write it is building from it
}

func (c *conn) serve() {
	defer c.srv.connWG.Done()
	defer c.srv.removeConn(c)
	defer c.nc.Close()
	if err := c.handshake(); err != nil {
		c.srv.logf("server: %s handshake: %v", c.nc.RemoteAddr(), err)
		return
	}
	c.readLoop()
	// A reply a handler left to another goroutine's flush is on the wire
	// before that flusher returns, and the flusher is a handler too (or
	// readLoop, answering BUSY).
	c.pending.Wait()
}

// handshake validates the client magic and announces capacity and the
// payload limit.
func (c *conn) handshake() error {
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(c.br, magic); err != nil {
		return err
	}
	if string(magic) != Magic {
		return ErrBadMagic
	}
	c.nc.SetReadDeadline(time.Time{})
	reply := make([]byte, 0, handshakeReplyLen)
	reply = append(reply, Magic...)
	reply = appendUint64(reply, uint64(c.srv.store.Capacity()))
	reply = appendUint32(reply, c.srv.opts.MaxPayload)
	_, err := deadlineWriter{c.nc, c.srv.opts.WriteTimeout}.Write(reply)
	return err
}

// deadlineWriter arms a fresh write deadline before every socket write
// so a stalled client bounds the write at WriteTimeout instead of
// blocking it forever.
type deadlineWriter struct {
	nc      net.Conn
	timeout time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	w.nc.SetWriteDeadline(time.Now().Add(w.timeout))
	return w.nc.Write(p)
}

// readLoop reads frames (a WRITE's payload into a pooled buffer that
// travels with the task), applies backpressure, coalesces adjacent
// pipelined writes, and starts a handler per task. It returns on
// connection error, protocol error, or drain (read deadline).
func (c *conn) readLoop() {
	s := c.srv
	for {
		req, err := ReadRequest(c.br, s.opts.MaxPayload)
		if err != nil {
			if !errors.Is(err, io.EOF) && !isClosing(err) {
				s.logf("server: %s read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		s.metrics.request(req.Op, 1)
		select {
		case s.tokens <- struct{}{}:
		default:
			// In-flight window full: reject instead of buffering.
			s.metrics.BusyRejected.Add(1)
			s.metrics.responses[StatusBusy].Add(1)
			c.reply(Response{Op: req.Op, Status: StatusBusy, ID: req.ID})
			bufpool.Put(req.Data)
			continue
		}
		t := &task{req: req, frame: req.Data, start: time.Now()}
		if req.Op == OpWrite && s.opts.CoalesceLimit > 0 {
			c.coalesce(t)
		}
		c.pending.Add(1)
		s.metrics.Inflight.Add(1)
		go c.handle(t)
	}
}

// coalesce merges adjacent WRITE frames that the client has already
// pipelined into the connection buffer onto t, turning back-to-back
// sequential 4 KB writes into one store call (one stripe lock trip, one
// parity mark). Each merged frame keeps its own request ID and gets its
// own acknowledgement. Only buffered bytes are examined — never blocks.
func (c *conn) coalesce(t *task) {
	s := c.srv
	for len(t.req.Data) < s.opts.CoalesceLimit {
		if c.br.Buffered() < 4 {
			return
		}
		pfx, err := c.br.Peek(4)
		if err != nil {
			return
		}
		n := int(uint32(pfx[0])<<24 | uint32(pfx[1])<<16 | uint32(pfx[2])<<8 | uint32(pfx[3]))
		if c.br.Buffered() < 4+n {
			return
		}
		frame, err := c.br.Peek(4 + n)
		if err != nil {
			return
		}
		next, err := DecodeRequest(frame[4:], s.opts.MaxPayload)
		if err != nil {
			return // leave it; the main loop will surface the error
		}
		if next.Op != OpWrite || next.Off != t.req.Off+int64(len(t.req.Data)) ||
			len(t.req.Data)+len(next.Data) > s.opts.CoalesceLimit {
			return
		}
		// Copy out of the bufio buffer before discarding it.
		t.req.Data = append(t.req.Data, next.Data...)
		t.req.Length = uint32(len(t.req.Data))
		t.merged = append(t.merged, next.ID)
		c.br.Discard(4 + n)
		s.metrics.request(OpWrite, 1)
		s.metrics.CoalescedWrites.Add(1)
	}
}

// wireSeg is one vector element of a response batch: either a range of
// the batch's header arena (frame headers and inline payloads) or a
// direct reference to a pooled read payload that travels to the socket
// without being recopied. Arena segments are stored as offsets, not
// slices, because the arena may be reallocated by later appends; the
// slices are materialized only when the batch is sealed.
type wireSeg struct {
	start, end int    // arena range; meaningful when data == nil
	data       []byte // pooled payload, written zero-copy
}

// maxResponseBatch bounds the vector elements gathered into one writev
// batch, keeping the arena finite when the queue never goes empty.
const maxResponseBatch = 256

// maxBatchBytes bounds the payload bytes gathered into one writev
// batch. Beyond coalescing efficiency this bounds what one write
// deadline covers: a multi-megabyte batch can be absorbed whole by
// kernel buffer autotuning, letting a stalled reader soak up responses
// that a sequence of bounded writes would have turned into a timeout.
// One response larger than the cap still travels as a single batch.
const maxBatchBytes = 64 << 10

// maxQueued bounds the replies waiting behind a flush in progress.
// Past it a handler waits in reply, still holding its in-flight token,
// so a client that pipelines requests and reads nothing runs the server
// out of tokens for it (then ERR_BUSY, then TCP backpressure on the
// reader) instead of out of memory.
const maxQueued = 64

// reply sends resp, and a copy of it under each merged frame ID, to the
// client. The replies join the connection's queue; a caller that finds
// no flush in progress becomes the flusher and writes the queue out —
// its own replies, and whatever other handlers queue while each write
// is in flight — until the queue is empty. A lone reply thus leaves
// from the goroutine that produced it, and a burst still leaves as one
// gathered write per round.
func (c *conn) reply(resp Response, merged ...uint64) {
	c.wmu.Lock()
	c.enqueue(resp)
	for _, id := range merged {
		resp.ID = id
		c.enqueue(resp)
	}
	if c.flushing {
		c.wmu.Unlock()
		return
	}
	c.flushing = true
	for len(c.queue) > 0 && !c.broken {
		c.queue, c.taken = c.taken[:0], c.queue
		c.room.Broadcast()
		c.wmu.Unlock()
		ok := c.write(c.taken)
		c.wmu.Lock()
		if !ok {
			c.broken, c.queue = true, nil
			c.room.Broadcast()
			c.nc.Close() // unblock the reader
		}
	}
	c.flushing = false
	c.wmu.Unlock()
}

// enqueue appends one reply to the queue, waiting for room while a
// flush is in progress. Called with wmu held.
func (c *conn) enqueue(resp Response) {
	for c.flushing && len(c.queue) >= maxQueued && !c.broken {
		c.room.Wait()
	}
	if !c.broken {
		c.queue = append(c.queue, resp)
	}
}

// batch is one scatter-gather socket write (writev on TCP) in the
// making: frame headers and small payloads are serialized into a
// reusable arena, while pooled READ payloads become their own vector
// elements — the hot read path never copies payload bytes into a frame
// buffer.
type batch struct {
	arena  []byte
	segs   []wireSeg
	vecs   net.Buffers
	pooled [][]byte
	bytes  int
}

func (b *batch) add(resp *Response) {
	b.bytes += respHeaderLen + 4 + len(resp.Data)
	start := len(b.arena)
	if resp.pooled && len(resp.Data) > 0 {
		b.arena = appendResponseHeader(b.arena, resp)
		b.segs = append(b.segs, wireSeg{start: start, end: len(b.arena)}, wireSeg{data: resp.Data})
		b.pooled = append(b.pooled, resp.Data)
		return
	}
	b.arena = AppendResponse(b.arena, resp)
	if resp.pooled {
		bufpool.Put(resp.Data) // empty payload; serialized inline
	}
	if n := len(b.segs); n > 0 && b.segs[n-1].data == nil && b.segs[n-1].end == start {
		b.segs[n-1].end = len(b.arena) // coalesce adjacent arena segments
	} else {
		b.segs = append(b.segs, wireSeg{start: start, end: len(b.arena)})
	}
}

// writeTo seals and writes the batch. net.Buffers.WriteTo consumes the
// vector and must see the connection itself (not a wrapper) to take the
// writev path, so the deadline is armed on the conn directly: if the
// client stops reading, the write times out and the caller tears the
// connection down rather than hold its handlers behind the full queue.
func (b *batch) writeTo(nc net.Conn, timeout time.Duration) error {
	b.vecs = b.vecs[:0]
	for _, sg := range b.segs {
		if sg.data != nil {
			b.vecs = append(b.vecs, sg.data)
		} else {
			b.vecs = append(b.vecs, b.arena[sg.start:sg.end])
		}
	}
	nc.SetWriteDeadline(time.Now().Add(timeout))
	_, err := b.vecs.WriteTo(nc)
	for _, p := range b.pooled {
		bufpool.Put(p) // on the wire (or the conn is dead); done with it
	}
	b.arena, b.segs, b.pooled, b.bytes = b.arena[:0], b.segs[:0], b.pooled[:0], 0
	return err
}

// write puts rs on the wire, as one batch unless they outgrow a batch's
// bounds. Only the flusher calls it.
func (c *conn) write(rs []Response) bool {
	b := &c.batch
	for i := range rs {
		b.add(&rs[i])
		if len(b.segs) >= maxResponseBatch || b.bytes >= maxBatchBytes || i == len(rs)-1 {
			if err := b.writeTo(c.nc, c.srv.opts.WriteTimeout); err != nil {
				return false
			}
		}
	}
	return true
}

// isClosing reports errors expected at teardown: closed sockets and the
// drain deadline.
func isClosing(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
