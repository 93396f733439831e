package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"afraid/internal/bufpool"
	"afraid/internal/core"
)

// Backend is what the service needs from a store: the three data-path
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
	Capacity() int64
	// StatMap returns a fresh flat snapshot of the store's counters
	// under dotted keys prefixed by the layer that counts them
	// ("core.dirty_stripes", "tier.promotes"): bools as 0/1, durations
	// as _ns, lists as a count plus a _mask. The server adds its own
	// "server." keys to the map and sends it as the STAT payload.
	StatMap() map[string]int64
}

// Options configures a Server. The zero value picks sensible defaults;
// a frame's payload limit (DefaultMaxPayload) and the 30 s deadline on
// each response write are fixed.
type Options struct {
	// MaxInflight bounds accepted-but-unfinished requests across all
	// connections (default 256), and so the handlers busy applying them
	// to the store. Beyond it the server answers ERR_BUSY instead of
	// buffering without bound.
	MaxInflight int
	// RequestTimeout is the per-request deadline (default 30s), counted
	// from the frame's arrival; it cancels store work mid-request via
	// context.
	RequestTimeout time.Duration
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)

	// maxPayload bounds one frame's data (default DefaultMaxPayload),
	// the STAT snapshot's few KiB included; the handshake tells the
	// client.
	maxPayload uint32
	// writeTimeout bounds each socket write of a response frame
	// (default 30s). A client that pipelines requests but stops reading
	// responses would otherwise block the reply holding its connection's
	// write lock, and park its other handlers behind it, each on an
	// in-flight token; on expiry the connection is closed instead.
	writeTimeout time.Duration
}

func (o *Options) fill() {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.maxPayload == 0 {
		o.maxPayload = DefaultMaxPayload
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.writeTimeout <= 0 {
		o.writeTimeout = 30 * time.Second
	}
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// task is one request frame on its way to the store: a WRITE's Data is
// the pooled buffer its payload was read into, which handle returns
// once the store call is back.
type task struct {
	req   Request
	start time.Time
	ctx   reqCtx // the store call's context
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
	c := &conn{srv: s, nc: nc, br: bufio.NewReaderSize(nc, readBufSize), tasks: make(chan *task)}
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

// handler serves the connection's tasks, starting with t, until serve
// closes the task channel. It goes back to waiting after each reply, so
// its stack, grown once through the store's call chain, serves the next
// request as it is.
func (c *conn) handler(t *task) {
	s := c.srv
	defer c.pending.Done()
	defer s.metrics.Handlers.Add(-1)
	for ok := true; ok; t, ok = <-c.tasks {
		c.handle(t)
	}
}

// handle is one request from frame to reply: the store call, its
// response, then the in-flight token goes back. The handler counts
// itself idle before its reply can reach the client, so the request the
// reply prompts finds it.
func (c *conn) handle(t *task) {
	s := c.srv
	queued := time.Since(t.start) // dispatch -> this handler running
	resp := s.apply(&t.ctx, &t.req)
	t.ctx.end(context.Canceled)
	bufpool.Put(t.req.Data) // Backend does not retain it
	s.metrics.task(&t.req, resp.Status, t.start, queued, time.Since(t.start))
	resp.ID = t.req.ID
	c.idle.Add(1)
	c.reply(resp)
	s.metrics.Inflight.Add(-1)
	<-s.tokens
}

// reqCtx is a request's context: the server's base context, cancelled
// on hard close, with the deadline frame arrival + RequestTimeout, and
// cancelled when the store call returns. It lives in the task, so it
// allocates nothing, and it arms a timer only for a store that asks for
// Done; Err reads the clock instead.
type reqCtx struct {
	base     context.Context
	deadline time.Time
	mu       sync.Mutex
	done     chan struct{} // made by Done; closed once err is set
	err      error
	timer    *time.Timer // armed by Done
	unhook   func() bool // Done's hook on base
}

func (c *reqCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *reqCtx) Value(key any) any { return c.base.Value(key) }

func (c *reqCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
		} else {
			c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.end(context.DeadlineExceeded) })
			c.unhook = context.AfterFunc(c.base, func() { c.end(c.base.Err()) })
		}
	}
	return c.done
}

// Err ends the context first if it finds the base context cancelled or
// the deadline past, so that it is non-nil only once Done is closed.
func (c *reqCtx) Err() error {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	if err != nil {
		return err
	}
	select {
	case <-c.base.Done():
		return c.end(c.base.Err())
	default:
	}
	if !time.Now().Before(c.deadline) {
		return c.end(context.DeadlineExceeded)
	}
	return nil
}

// end ends the context with err, unless it has ended already, and
// returns the error it ended with. It closes Done, releasing whatever
// waits on it, and disarms what Done armed.
func (c *reqCtx) end(err error) error {
	c.mu.Lock()
	if c.err != nil {
		err = c.err
		c.mu.Unlock()
		return err
	}
	c.err = err
	if c.done != nil {
		close(c.done)
	}
	timer, unhook := c.timer, c.unhook
	c.mu.Unlock()
	if timer != nil {
		timer.Stop()
		unhook()
	}
	return err
}

// rangeOK reports whether [off, off+length) lies within capacity,
// without computing off+length (which overflows for off near MaxInt64
// — decodeRequestHeader admits any offset up to MaxInt64).
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
		// buffer from the pool, and reply returns it once the response
		// frame is on the wire.
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
// hands each request to one of the connection's handler goroutines,
// each of which writes its own reply under the connection's write lock,
// so responses return in completion order, not issue order.
type conn struct {
	srv     *Server
	nc      net.Conn
	br      *bufio.Reader
	tasks   chan *task     // unbuffered: readLoop to an idle handler
	idle    atomic.Int64   // handlers past their store call and not yet handed another task
	pending sync.WaitGroup // handlers started and not yet returned

	wmu    sync.Mutex  // held across one reply's socket write; guards what follows
	broken bool        // a write failed; replies are dropped
	hdr    []byte      // the frame header, and a payload that is not pooled
	vecs   [2][]byte   // hdr, then a pooled payload
	out    net.Buffers // what of vecs is still to be written
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
	// Each handler writes its own reply, so once the last one returns
	// every response is out.
	close(c.tasks)
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
	reply = appendUint32(reply, c.srv.opts.maxPayload)
	_, err := deadlineWriter{c.nc, c.srv.opts.writeTimeout}.Write(reply)
	return err
}

// deadlineWriter arms a fresh write deadline before every socket write
// so a stalled client bounds the write at writeTimeout instead of
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
// travels with the task), applies backpressure, and hands each frame to
// an idle handler as a task of its own, starting one only when none is.
// An idle handler may still be writing its reply, and the hand-off then
// waits for it; it still holds its token, so the connection's handlers
// never outnumber the most requests it has had in flight at once. It
// returns on connection error, protocol error, or drain (read deadline).
func (c *conn) readLoop() {
	s := c.srv
	for {
		req, err := ReadRequest(c.br, s.opts.maxPayload)
		if err != nil {
			if !errors.Is(err, io.EOF) && !isClosing(err) {
				s.logf("server: %s read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		s.metrics.request(req.Op)
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
		t := &task{req: req, start: time.Now()}
		t.ctx.base, t.ctx.deadline = s.baseCtx, t.start.Add(s.opts.RequestTimeout)
		s.metrics.Inflight.Add(1)
		if c.idle.Add(-1) >= 0 {
			c.tasks <- t
			continue
		}
		c.idle.Add(1)
		c.pending.Add(1)
		s.metrics.Handlers.Add(1)
		s.metrics.HandlerStarts.Add(1)
		go c.handler(t)
	}
}

// reply writes resp to the client as one frame, under the connection's
// write lock, so frames leave whole and in the order their replies take
// the lock: completion order. The header, and a small payload (STAT,
// error text) copied in beside it, go out with a pooled READ payload as
// one scatter-gather write (writev on TCP), the payload never recopied.
// A write that fails or outlasts writeTimeout breaks the connection:
// the socket is closed, which unblocks the reader, and later replies are
// dropped. Either way a pooled payload goes back to bufpool.
func (c *conn) reply(resp Response) {
	c.wmu.Lock()
	if !c.broken {
		if resp.pooled && len(resp.Data) > 0 {
			c.hdr = appendResponseHeader(c.hdr[:0], &resp)
			c.out = append(c.vecs[:0], c.hdr, resp.Data)
		} else {
			c.hdr = AppendResponse(c.hdr[:0], &resp)
			c.out = append(c.vecs[:0], c.hdr)
		}
		// WriteTo consumes c.out, and must see the conn itself, not a
		// wrapper, to take the writev path.
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.opts.writeTimeout))
		if _, err := c.out.WriteTo(c.nc); err != nil {
			c.broken = true
			c.nc.Close()
		}
	}
	c.wmu.Unlock()
	if resp.pooled {
		bufpool.Put(resp.Data)
	}
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
