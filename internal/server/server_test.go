package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/obs"
)

// startServer brings up a server over a fresh AFRAID-mode mem-device
// store on a loopback listener and returns its address.
func startServer(t *testing.T, storeOpts core.Options, srvOpts Options) (*Server, *core.Store, string) {
	t.Helper()
	devs := make([]core.BlockDevice, 5)
	for i := range devs {
		devs[i] = core.NewMemDevice(4 << 20)
	}
	if storeOpts.StripeUnit == 0 {
		storeOpts.StripeUnit = 8 << 10
	}
	st, err := core.Open(devs, &core.MemNVRAM{}, storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, srvOpts)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveDone; err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
		st.Close()
	})
	return srv, st, lis.Addr().String()
}

func TestServerEndToEnd(t *testing.T) {
	srv, _, addr := startServer(t, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour}, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if c.Capacity() == 0 {
		t.Fatal("handshake reported zero capacity")
	}
	data := []byte("one disk I/O, not four")
	if _, err := c.WriteAt(data, 4096); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := c.ReadAt(got, 4096); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}

	ctx := context.Background()
	st, err := c.Stat(ctx)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if st.ModeString() != "afraid" {
		t.Fatalf("mode %q, want afraid", st.ModeString())
	}
	if st["core.dirty_stripes"] == 0 {
		t.Fatal("write left no dirty stripes before flush")
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st, err = c.Stat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st["core.dirty_stripes"] != 0 {
		t.Fatalf("dirty stripes after flush = %d", st["core.dirty_stripes"])
	}
	if st["server.capacity"] != c.Capacity() {
		t.Fatalf("STAT capacity %d, handshake said %d", st["server.capacity"], c.Capacity())
	}

	// Bad range → ERR_BAD_REQUEST, connection stays usable.
	if _, err := c.ReadAt(make([]byte, 16), c.Capacity()); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-range read: got %v, want ErrBadRequest", err)
	}
	if _, err := c.ReadAt(got, 4096); err != nil {
		t.Fatalf("ReadAt after rejected request: %v", err)
	}
	if n := srv.Metrics().requests[OpRead].Value(); n == 0 {
		t.Fatal("metrics recorded no READ requests")
	}
	// Op 5, the retired SCRUB, is an unknown op: the server closes the
	// connection.
	if _, err := c.do(ctx, &Request{Op: Op(5), Length: 32 << 10}); err == nil {
		t.Fatal("op 5 was served")
	}
	if _, err := c.ReadAt(got, 4096); err == nil {
		t.Fatal("the connection outlived an unknown op")
	}
}

// TestOverflowingOffsetsRejected covers offsets near MaxInt64 (which
// decodeRequest admits): a naive off+length capacity check wraps
// negative, passes, and panics in layout.Split inside a handler. Every
// ranged op must answer ERR_BAD_REQUEST and the connection must stay
// usable.
func TestOverflowingOffsetsRejected(t *testing.T) {
	_, _, addr := startServer(t, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour}, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	huge := int64(math.MaxInt64 - 100)
	if _, err := c.do(ctx, &Request{Op: OpRead, Off: huge, Length: 4096}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("READ at %d: got %v, want ErrBadRequest", huge, err)
	}
	if _, err := c.do(ctx, &Request{Op: OpWrite, Off: huge, Length: 4, Data: []byte("boom")}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("WRITE at %d: got %v, want ErrBadRequest", huge, err)
	}
	// The server survived: a normal round trip still works.
	data := []byte("still serving")
	if _, err := c.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt after rejected requests: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := c.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt after rejected requests: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
}

func TestServerLargeTransfersChunk(t *testing.T) {
	_, _, addr := startServer(t, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour},
		Options{maxPayload: 8 << 10})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := make([]byte, 100<<10) // 12.5 chunks at the 8 KiB limit
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	if _, err := c.WriteAt(data, 512); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := c.ReadAt(got, 512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("chunked transfer corrupted data")
	}
}

// TestServerConcurrency is the acceptance workload: ≥8 concurrent
// clients over real TCP issuing mixed reads and writes against an
// AFRAID-mode store with the scrubber live, then a graceful drain.
// Every client verifies its own region, the store is checked after
// drain, and the metrics must account for every frame.
func TestServerConcurrency(t *testing.T) {
	srv, st, addr := startServer(t,
		core.Options{Mode: core.Afraid, ScrubIdle: 2 * time.Millisecond, DirtyThreshold: 16},
		Options{MaxInflight: 1024, RequestTimeout: time.Minute})

	const (
		clients = 10
		ops     = 120
		ioSize  = 4 << 10
	)
	region := st.Capacity() / clients
	var wantReads, wantWrites int64
	var cmu sync.Mutex // guards wantReads/wantWrites
	errs := make(chan error, clients)
	final := make([][]byte, clients) // expected content of each region

	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			base := int64(w) * region
			mirror := make([]byte, region) // what the region must hold
			buf := make([]byte, ioSize)
			got := make([]byte, ioSize)
			reads, writes := int64(0), int64(0)
			for i := 0; i < ops; i++ {
				off := rng.Int63n(region - ioSize)
				if rng.Intn(3) == 0 { // 1/3 reads, 2/3 writes
					if _, err := c.ReadAt(got, base+off); err != nil {
						errs <- fmt.Errorf("client %d read: %w", w, err)
						return
					}
					if !bytes.Equal(got, mirror[off:off+ioSize]) {
						errs <- fmt.Errorf("client %d: read at %d disagrees with model", w, off)
						return
					}
					reads++
				} else {
					rng.Read(buf)
					if _, err := c.WriteAt(buf, base+off); err != nil {
						errs <- fmt.Errorf("client %d write: %w", w, err)
						return
					}
					copy(mirror[off:], buf)
					writes++
				}
			}
			final[w] = mirror
			cmu.Lock()
			wantReads += reads
			wantWrites += writes
			cmu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Metrics on the endpoint must match what the clients issued.
	m := srv.Metrics()
	if got := m.requests[OpRead].Value(); got != wantReads {
		t.Fatalf("metrics READ requests = %d, clients issued %d", got, wantReads)
	}
	if got := m.requests[OpWrite].Value(); got != wantWrites {
		t.Fatalf("metrics WRITE requests = %d, clients issued %d", got, wantWrites)
	}
	if got := m.responses[StatusOK].Value(); got != wantReads+wantWrites {
		t.Fatalf("metrics OK responses = %d, want %d", got, wantReads+wantWrites)
	}
	if busy := m.BusyRejected.Value(); busy != 0 {
		t.Fatalf("unexpected ERR_BUSY rejections: %d", busy)
	}
	// The STAT snapshot must carry the same counters.
	snap := srv.Stat()
	if got := snap["server.requests.read"]; got != wantReads {
		t.Fatalf("snapshot READ count %d, want %d", got, wantReads)
	}
	if _, ok := snap["core.dirty_stripes"]; !ok {
		t.Fatal("snapshot missing core.dirty_stripes")
	}

	// The /debug/histograms payload (same handler afraidd mounts) must
	// report non-zero p50/p95/p99 for READ and WRITE after the
	// workload, in both the server and core sections.
	rec := httptest.NewRecorder()
	obs.HistogramHandler(
		obs.Section{Name: "server", Reg: m.Obs()},
		obs.Section{Name: "core", Reg: st.Obs()},
	).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/histograms", nil))
	var hist map[string]map[string]obs.Summary
	if err := json.Unmarshal(rec.Body.Bytes(), &hist); err != nil {
		t.Fatalf("histogram endpoint JSON: %v\n%s", err, rec.Body.String())
	}
	for _, op := range []Op{OpRead, OpWrite} {
		sum, ok := hist["server"][op.String()]
		if !ok {
			t.Fatalf("histogram dump missing server/%s", op)
		}
		if sum.Count == 0 || sum.P50US <= 0 || sum.P95US <= 0 || sum.P99US <= 0 {
			t.Fatalf("server %s histogram has zero percentiles after workload: %+v", op, sum)
		}
		if sum.P50US > sum.P99US {
			t.Fatalf("server %s percentiles not ordered: %+v", op, sum)
		}
	}
	for _, name := range []string{"device_read", "device_write", "stripe_lock_wait"} {
		if sum := hist["core"][name]; sum.Count == 0 {
			t.Fatalf("core %s histogram empty after workload", name)
		}
	}
	if qw := hist["server"]["queue_wait"]; qw.Count == 0 {
		t.Fatal("queue_wait histogram empty after workload")
	}

	// Graceful drain, then verify every region directly on the store.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, region)
	for w := 0; w < clients; w++ {
		if _, err := st.ReadAt(got, int64(w)*region); err != nil {
			t.Fatalf("post-drain read region %d: %v", w, err)
		}
		if !bytes.Equal(got, final[w]) {
			t.Fatalf("post-drain: region %d differs from client %d's model", w, w)
		}
	}
	if bad, err := st.CheckParity(); err != nil || len(bad) != 0 {
		t.Fatalf("post-drain parity check: bad=%v err=%v", bad, err)
	}
}

// rawConn speaks the wire protocol directly (no Client) for tests that
// need precise control over framing.
type rawConn struct {
	nc net.Conn
	br *bufio.Reader
}

// readResponse reads one response frame into a fresh buffer: the two
// steps a Client's read loop composes, without a caller's slice to
// choose between them.
func readResponse(br *bufio.Reader, maxPayload uint32) (Response, error) {
	r, n, err := readResponseHeader(br, maxPayload)
	if err != nil {
		return Response{}, err
	}
	r.Data = make([]byte, n)
	return r, readPayload(br, r.Data)
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write([]byte(Magic)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	reply := make([]byte, handshakeReplyLen)
	if _, err := io.ReadFull(br, reply); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{nc: nc, br: br}
}

// TestPipelinedWritesAreServedOneByOne: adjacent 4 KiB WRITEs sent in
// one TCP write land in the connection buffer together, and each is
// still one store call and one acknowledgement under its own ID, with
// the bytes read back intact.
func TestPipelinedWritesAreServedOneByOne(t *testing.T) {
	srv, st, addr := startServer(t, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour, DisableScrubber: true},
		Options{MaxInflight: 64})

	const batch, ioSize, attempts = 4, 4 << 10, 50
	raw := dialRaw(t, addr)
	want := make([]byte, batch*ioSize)
	for attempt := 1; attempt <= attempts; attempt++ {
		var frames []byte
		base := int64(attempt%7) * int64(batch*ioSize)
		for i := 0; i < batch; i++ {
			chunk := want[i*ioSize : (i+1)*ioSize]
			for j := range chunk {
				chunk[j] = byte(attempt + i + j)
			}
			frames = appendRequest(frames, &Request{
				Op: OpWrite, ID: uint64(attempt*100 + i),
				Off: base + int64(i*ioSize), Length: ioSize, Data: chunk,
			})
		}
		if _, err := raw.nc.Write(frames); err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for i := 0; i < batch; i++ {
			resp, err := readResponse(raw.br, DefaultMaxPayload)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != StatusOK {
				t.Fatalf("write %d: %v %s", resp.ID, resp.Status, resp.Data)
			}
			if id := resp.ID; id/100 != uint64(attempt) || id%100 >= batch || seen[id] {
				t.Fatalf("attempt %d: ack for ID %d", attempt, id)
			}
			seen[resp.ID] = true
		}
		got := make([]byte, batch*ioSize)
		if _, err := st.ReadAt(got, base); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("attempt %d: pipelined writes read back wrong", attempt)
		}
	}
	if calls, frames := int64(st.Stats().Writes), srv.Metrics().requests[OpWrite].Value(); calls != frames {
		t.Fatalf("%d store writes for %d WRITE frames, want one each", calls, frames)
	}
}
