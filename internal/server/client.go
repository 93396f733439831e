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

// Client errors mapped from response statuses.
var (
	// ErrBusy means the server's in-flight window was full; the request
	// did no work and can be retried.
	ErrBusy = errors.New("server: busy, retry")
	// ErrTimeout means the server's per-request deadline expired.
	ErrTimeout = errors.New("server: request timed out")
	// ErrShutdown means the server cancelled the request while closing.
	ErrShutdown = errors.New("server: shutting down")
	// ErrBadRequest means the server rejected the request as invalid.
	ErrBadRequest = errors.New("server: bad request")
	// ErrConnectionLost wraps every error reported after the client's
	// connection has failed. Callers that pool or route over several
	// servers (internal/cluster) test for it with errors.Is to tell a
	// dead node from an op-level failure.
	ErrConnectionLost = errors.New("server: connection lost")
)

// Client speaks the block protocol over one connection. It is safe for
// concurrent use: every request carries a unique ID, concurrent calls
// pipeline onto the connection, and a background reader completes them
// in whatever order the server finishes (out-of-order completion).
//
// A Client is bound to its one connection for life: once the connection
// fails, every past and future call reports an error wrapping
// ErrConnectionLost and the Client cannot be revived — dial a fresh one.
// Err exposes the terminal state so a routing layer can decide to
// redial without issuing a probe request.
type Client struct {
	nc         net.Conn
	br         *bufio.Reader
	capacity   int64
	maxPayload uint32

	wmu    sync.Mutex  // serializes frame writes
	encBuf []byte      // one frame's prefix and header
	iov    [][]byte    // header and payload slices, sent as one writev
	vecs   net.Buffers // iov as WriteTo consumes it

	// chPool recycles completion channels across requests. A channel
	// goes back only once nothing can send on it any more: its response
	// was received, or its call was forgotten before the read loop
	// claimed it.
	chPool sync.Pool

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]call
	err     error
	done    chan struct{} // closed when the read loop exits
}

// call is one request awaiting its response: where the completion goes
// and, for a READ, the caller's slice the payload lands in.
//
// Ownership: the read loop claims a call by deleting it from pending
// under mu, and may write dst from then until it has sent on ch (or
// exited, closing done). A caller that gives up leaves freely only if
// abandon still finds its call in pending; otherwise it waits there,
// so no caller has its buffer back while the read loop can write it.
type call struct {
	ch  chan Response
	dst []byte
}

// settleGrace bounds how long a caller whose context has ended waits
// for a response the read loop is already landing in its buffer. The
// bytes are on the wire behind a header that has arrived, so on a live
// connection that wait is microseconds; a peer silent for this long in
// the middle of a frame is a dead peer, and is treated as one.
const settleGrace = 500 * time.Millisecond

// Dial connects to an afraidd server and performs the handshake.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc)
}

// DialTimeout is Dial with a bound covering both the TCP connect and
// the protocol handshake, so a black-holed address cannot wedge the
// caller for the kernel's connect timeout plus an unbounded handshake
// read. A cluster layer probing a possibly-dead node wants this, not
// Dial. d <= 0 means no bound.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	if d > 0 {
		nc.SetDeadline(time.Now().Add(d))
	}
	return NewClient(nc)
}

// NewClient performs the handshake over an established connection and
// starts the response reader. The client owns nc from here on, and closes
// it if the handshake fails. Any deadline the caller armed on nc (see
// DialTimeout) is cleared once the handshake completes, so it bounds only
// the setup.
func NewClient(nc net.Conn) (*Client, error) {
	c, err := handshake(nc)
	if err != nil {
		nc.Close()
	}
	return c, err
}

// handshake is NewClient up to closing nc when it fails.
func handshake(nc net.Conn) (*Client, error) {
	if _, err := nc.Write([]byte(Magic)); err != nil {
		return nil, fmt.Errorf("server: handshake write: %w", err)
	}
	br := bufio.NewReaderSize(nc, readBufSize)
	reply := make([]byte, handshakeReplyLen)
	if _, err := io.ReadFull(br, reply); err != nil {
		return nil, fmt.Errorf("server: handshake read: %w", err)
	}
	if string(reply[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	capacity := uint64(0)
	for _, b := range reply[len(Magic) : len(Magic)+8] {
		capacity = capacity<<8 | uint64(b)
	}
	maxPayload := uint32(0)
	for _, b := range reply[len(Magic)+8:] {
		maxPayload = maxPayload<<8 | uint32(b)
	}
	if maxPayload == 0 {
		return nil, fmt.Errorf("server: handshake advertises zero payload limit")
	}
	nc.SetDeadline(time.Time{}) // handshake done; steady-state I/O is unbounded
	c := &Client{
		nc:         nc,
		br:         br,
		capacity:   int64(capacity),
		maxPayload: maxPayload,
		pending:    make(map[uint64]call),
		done:       make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Capacity returns the served store's size in bytes.
func (c *Client) Capacity() int64 { return c.capacity }

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error {
	err := c.nc.Close()
	<-c.done
	return err
}

// readLoop completes waiting calls by request ID: it decodes a
// response header, claims the call, and reads the payload where it
// belongs — an OK READ of the length asked for straight into the
// caller's slice, anything else (a STAT snapshot, an error message, a
// READ of the wrong length) into a pooled frame the waiter releases.
func (c *Client) readLoop() {
	for {
		resp, n, err := readResponseHeader(c.br, c.maxPayload)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		cl, claimed := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if !claimed { // abandoned; skip its payload
			_, err = c.br.Discard(n)
			err = truncated(err)
		} else {
			if resp.Op == OpRead && resp.Status == StatusOK && n == len(cl.dst) {
				resp.Data = cl.dst
			} else {
				resp.frame = bufpool.Get(n)
				resp.Data = resp.frame
			}
			err = readPayload(c.br, resp.Data)
		}
		if err != nil {
			resp.release()
			c.fail(err)
			return
		}
		if claimed {
			cl.ch <- resp // buffered; never blocks
		}
	}
}

// fail records the terminal error and releases every waiter. From here
// the client is permanently dead: there is no reconnect path, by design
// — request IDs, the pipeline window, and the server's per-connection
// handlers and its write lock are all connection-scoped, so a transparent
// redial would silently drop in-flight requests. Routing layers detect
// the state via errors.Is(err, ErrConnectionLost) or Err and dial
// afresh.
func (c *Client) fail(err error) {
	err = fmt.Errorf("%w: %v", ErrConnectionLost, err)
	c.mu.Lock()
	c.err = err
	c.pending = nil
	c.mu.Unlock()
	close(c.done)
}

// Err returns the terminal connection error (wrapping
// ErrConnectionLost), or nil while the client is usable.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Client) getCh() chan Response {
	if v := c.chPool.Get(); v != nil {
		return v.(chan Response)
	}
	return make(chan Response, 1)
}

// start registers a fresh request ID, sends the frame — header and
// payload, a WRITE's slices, as one writev, so the payload goes from the
// caller's slices to the socket uncopied — and returns the channel the read
// loop will complete it on. dst, for a READ, is where an OK payload is to
// land. Callers pipeline by starting several requests before waiting on any.
func (c *Client) start(req *Request, dst []byte, payload ...[]byte) (uint64, chan Response, error) {
	ch := c.getCh()
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = call{ch: ch, dst: dst}
	c.mu.Unlock()
	req.ID = id

	c.wmu.Lock()
	size := 0
	for _, p := range payload {
		size += len(p)
	}
	c.encBuf = appendRequestHeader(c.encBuf[:0], req, size)
	var err error
	if size == 0 {
		_, err = c.nc.Write(c.encBuf)
	} else {
		c.iov = append(append(c.iov[:0], c.encBuf), payload...)
		c.vecs = c.iov
		_, err = c.vecs.WriteTo(c.nc)
		clear(c.iov) // on an error WriteTo leaves the unsent rest in place
	}
	c.wmu.Unlock()
	if err != nil {
		c.abandon(id, ch)
		return 0, nil, fmt.Errorf("%w: send: %v", ErrConnectionLost, err)
	}
	return id, ch, nil
}

// wait blocks for the completion of a started request.
func (c *Client) wait(ctx context.Context, id uint64, ch chan Response) (Response, error) {
	select {
	case resp := <-ch:
		c.chPool.Put(ch)
		err := statusErr(resp)
		if err != nil {
			resp.release() // Data already captured in the error string
		}
		return resp, err
	case <-ctx.Done():
		c.abandon(id, ch)
		return Response{}, ctx.Err()
	case <-c.done:
		return Response{}, c.Err()
	}
}

// do sends one request and waits for its completion.
func (c *Client) do(ctx context.Context, req *Request) (Response, error) {
	id, ch, err := c.start(req, nil, req.Data)
	if err != nil {
		return Response{}, err
	}
	return c.wait(ctx, id, ch)
}

// abandon gives up on a started request whose completion has not been
// received, returning once the read loop can no longer touch the call's
// destination: at once if the call is still pending or the connection
// already down, otherwise (the read loop has claimed it — see call)
// when the completion arrives. A connection silent for settleGrace with
// the payload half delivered is severed, which fails every call on the
// client and ends the wait.
func (c *Client) abandon(id uint64, ch chan Response) {
	c.mu.Lock()
	_, unclaimed := c.pending[id]
	delete(c.pending, id)
	dead := c.err != nil
	c.mu.Unlock()
	if unclaimed {
		c.chPool.Put(ch)
		return
	}
	if dead {
		return // fail ran, so the read loop has exited
	}
	grace := time.NewTimer(settleGrace)
	defer grace.Stop()
	select {
	case resp := <-ch:
		c.chPool.Put(ch)
		resp.release()
	case <-c.done:
	case <-grace.C:
		c.nc.Close()
		<-c.done
	}
}

// statusErr maps a response status to a client error.
func statusErr(r Response) error {
	switch r.Status {
	case StatusOK:
		return nil
	case StatusBusy:
		return ErrBusy
	case StatusBadRequest:
		return fmt.Errorf("%w: %s", ErrBadRequest, r.Data)
	case StatusDataLoss:
		return fmt.Errorf("%w: %s", core.ErrDataLoss, r.Data)
	case StatusTimeout:
		return fmt.Errorf("%w: %s", ErrTimeout, r.Data)
	case StatusShutdown:
		return fmt.Errorf("%w: %s", ErrShutdown, r.Data)
	default:
		return fmt.Errorf("server: %v: %s", r.Status, r.Data)
	}
}

// ReadAt implements io.ReaderAt against the served store.
func (c *Client) ReadAt(p []byte, off int64) (int, error) {
	return c.ReadAtContext(context.Background(), p, off)
}

// pipelineWindow bounds the chunk requests a split I/O keeps in flight
// at once — enough to hide the round trip, and well under the server's
// default 256-request window so a single transfer doesn't trip
// ERR_BUSY.
const pipelineWindow = 16

// chunkCall is one in-flight chunk of a split I/O.
type chunkCall struct {
	size int
	id   uint64
	ch   chan Response
}

// ReadAtContext reads len(p) bytes at off, splitting requests larger
// than the server's payload limit into chunks pipelined onto the
// connection (see split).
func (c *Client) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	return c.split(ctx, OpRead, [][]byte{p}, off)
}

// WriteAt implements io.WriterAt against the served store.
func (c *Client) WriteAt(p []byte, off int64) (int, error) {
	return c.WriteAtContext(context.Background(), p, off)
}

// WriteAtContext writes p at off, splitting writes larger than the
// server's payload limit into chunks pipelined onto the connection (see
// split), each one store call on the server.
func (c *Client) WriteAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	return c.WriteVecAtContext(ctx, [][]byte{p}, off)
}

// WriteVecAtContext writes bufs back to back at off, as WriteAtContext
// writes their concatenation: the same frames on the wire, each one's
// header and the slices of bufs it carries sent as one writev, so nothing
// is copied. A cluster volume writes a node's units of a full-stripe run
// this way, in one request.
func (c *Client) WriteVecAtContext(ctx context.Context, bufs [][]byte, off int64) (int, error) {
	return c.split(ctx, OpWrite, bufs, off)
}

// split is one READ or WRITE of bufs, back to back at off, as chunks of
// at most the server's payload limit pipelined onto the connection, up
// to pipelineWindow outstanding at once. A READ has one buffer, and each
// chunk's payload lands in its part of it. Completions are collected in
// issue order, so the returned count is always the contiguous prefix of
// bufs that was done. ctx is checked before every chunk issue as well as
// while waiting, so a cancelled context (a cluster-level timeout) stops a
// large split I/O promptly instead of pushing the rest of the window at
// a server that may be stalled.
func (c *Client) split(ctx context.Context, op Op, bufs [][]byte, off int64) (int, error) {
	// The window is a fixed ring rather than an appended-to slice so a
	// steady stream of split I/Os keeps zero per-call window state on
	// the heap.
	var win [pipelineWindow]chunkCall
	head, count := 0, 0
	defer func() {
		for i := 0; i < count; i++ {
			cc := win[(head+i)%pipelineWindow]
			c.abandon(cc.id, cc.ch)
		}
	}()
	size := 0
	for _, b := range bufs {
		size += len(b)
	}
	var pieceBuf [4][]byte
	pieces := pieceBuf[:0] // one chunk: slices of bufs from cursor (b, at) on
	n, sent, b, at := 0, 0, 0, 0
	for sent < size || count > 0 {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		if sent < size && count < pipelineWindow {
			chunk := min(size-sent, int(c.maxPayload))
			pieces = pieces[:0]
			for left := chunk; left > 0; {
				k := min(left, len(bufs[b])-at)
				pieces = append(pieces, bufs[b][at:at+k])
				if left, at = left-k, at+k; at == len(bufs[b]) {
					b, at = b+1, 0
				}
			}
			var dst []byte
			if op == OpRead {
				dst, pieces = pieces[0], pieces[:0] // a READ's chunk lands, it is not sent
			}
			id, ch, err := c.start(&Request{Op: op, Off: off + int64(sent), Length: uint32(chunk)}, dst, pieces...)
			if err != nil {
				return n, err
			}
			win[(head+count)%pipelineWindow] = chunkCall{size: chunk, id: id, ch: ch}
			count++
			sent += chunk
			continue
		}
		cc := win[head]
		head, count = (head+1)%pipelineWindow, count-1
		resp, err := c.wait(ctx, cc.id, cc.ch)
		if err != nil {
			return n, err
		}
		got := len(resp.Data)
		resp.release()
		if op == OpRead && got != cc.size {
			return n, fmt.Errorf("server: READ returned %d bytes, want %d", got, cc.size)
		}
		n += cc.size // a READ's payload landed in its part of bufs[0]
	}
	return n, nil
}

// Flush asks the server to make the whole array redundant.
func (c *Client) Flush(ctx context.Context) error {
	resp, err := c.do(ctx, &Request{Op: OpFlush})
	resp.release()
	return err
}

// Ping performs a minimal health-check round trip: a STAT whose payload
// is discarded. It is the cheapest request the protocol offers (no
// store I/O, a few KiB back), so a cluster layer can probe node
// liveness on a tight deadline without waiting out a full request
// timeout on a real transfer.
func (c *Client) Ping(ctx context.Context) error {
	resp, err := c.do(ctx, &Request{Op: OpStat})
	resp.release()
	return err
}

// Stat returns the server's snapshot: the served store's counters and
// the server's own, keyed by name.
func (c *Client) Stat(ctx context.Context) (Stat, error) {
	resp, err := c.do(ctx, &Request{Op: OpStat})
	if err != nil {
		return nil, err
	}
	st, err := decodeStat(resp.Data)
	resp.release()
	return st, err
}

// ModeString names the served store's redundancy mode ("core.mode"),
// "-" when the node reports none.
func (st Stat) ModeString() string {
	m, ok := st["core.mode"]
	if !ok {
		return "-"
	}
	return core.Mode(m).String()
}
