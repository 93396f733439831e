package server

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/testutil"
)

// BenchmarkServerThroughput is the serving-path baseline: 4 KB random
// writes from 8 concurrent loopback clients, AFRAID vs RAID 5 mode.
// ns/op is the per-write wall time across the whole fleet; p95-ms is
// the client-observed tail latency. The AFRAID/RAID5 ratio here is the
// network-visible version of the paper's small-update-penalty result.
//
// pipelined is the coalescing row: one client streams sequential 64 KiB
// writes at a server whose payload limit is 4 KiB, so every write
// travels as 16 adjacent pipelined frames that the server can merge
// only as far as they sit together in its read buffer. ns/op is per
// 4 KiB frame, and merged/op the share of frames that rode on another
// frame's store call; it is the row readBufSize was chosen against.
func BenchmarkServerThroughput(b *testing.B) {
	b.Run("afraid", func(b *testing.B) { benchmarkServerWrites(b, core.Afraid) })
	b.Run("raid5", func(b *testing.B) { benchmarkServerWrites(b, core.Raid5) })
	b.Run("pipelined", benchmarkPipelinedWrites)
}

func benchmarkPipelinedWrites(b *testing.B) {
	const frame, window = 4 << 10, 16
	srv, c := startBench(b, Options{MaxInflight: 1024, MaxPayload: frame})
	defer srv.Close()
	defer c.Close()
	buf := make([]byte, frame*window)
	rand.New(rand.NewSource(3)).Read(buf)
	span := c.Capacity() - int64(len(buf))
	merged := srv.Metrics().CoalescedWrites.Value()
	b.SetBytes(frame)
	b.ResetTimer()
	frames, off := 0, int64(0)
	for ; frames < b.N; frames += window {
		if _, err := c.WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
		if off += int64(len(buf)); off > span {
			off = 0
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(srv.Metrics().CoalescedWrites.Value()-merged)/float64(frames), "merged/op")
}

func benchmarkServerWrites(b *testing.B, mode core.Mode) {
	const (
		clients = 8
		ioSize  = 4 << 10
	)
	devs := make([]core.BlockDevice, 5)
	for i := range devs {
		devs[i] = core.NewMemDevice(16 << 20)
	}
	st, err := core.Open(devs, &core.MemNVRAM{}, core.Options{Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := New(st, Options{MaxInflight: 1024})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	region := st.Capacity() / clients
	lats := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	perClient := b.N / clients

	b.ResetTimer()
	start := time.Now()
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(lis.Addr().String())
			if err != nil {
				b.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			base := int64(w) * region
			buf := make([]byte, ioSize)
			rng.Read(buf)
			mine := make([]time.Duration, 0, perClient)
			n := perClient
			if w == 0 {
				n += b.N % clients
			}
			for i := 0; i < n; i++ {
				off := base + rng.Int63n(region-ioSize)
				t0 := time.Now()
				for {
					_, err := c.WriteAt(buf, off)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrBusy) {
						b.Error(err)
						return
					}
				}
				mine = append(mine, time.Since(t0))
			}
			lats[w] = mine
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	all := make([]time.Duration, 0, b.N)
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		p95 := all[int(0.95*float64(len(all)-1))]
		b.ReportMetric(float64(p95.Microseconds())/1e3, "p95-ms")
	}
	b.ReportMetric(float64(len(all))/elapsed.Seconds(), "ops/s")
	b.SetBytes(ioSize)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// startBench brings up a served store with every block written and
// returns a connected client. The caller owns both shutdowns.
func startBench(tb testing.TB, opts Options) (*Server, *Client) {
	tb.Helper()
	devs := make([]core.BlockDevice, 5)
	for i := range devs {
		devs[i] = core.NewMemDevice(8 << 20)
	}
	st, err := core.Open(devs, &core.MemNVRAM{}, core.Options{Mode: core.Afraid})
	if err != nil {
		tb.Fatal(err)
	}
	srv := New(st, opts)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		tb.Fatal(err)
	}
	go srv.Serve(lis)
	c, err := Dial(lis.Addr().String())
	if err != nil {
		srv.Close()
		st.Close()
		tb.Fatal(err)
	}
	buf := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(buf)
	for off := int64(0); off < st.Capacity(); off += int64(len(buf)) {
		n := int64(len(buf))
		if off+n > st.Capacity() {
			n = st.Capacity() - off
		}
		if _, err := c.WriteAt(buf[:n], off); err != nil {
			tb.Fatal(err)
		}
	}
	// Drain deferred parity so the scrubber idles during measurement.
	if err := c.Flush(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return srv, c
}

// BenchmarkServerRead is the read-side serving baseline: one client
// issuing 64 KiB reads over loopback. With the scatter-gather response
// path the server never copies the store payload into a contiguous
// frame, and the client reads each payload off the socket into the
// caller's own slice, so B/op here should sit far below the 64 KiB
// payload.
func BenchmarkServerRead(b *testing.B) { benchmarkServerIO(b, (*Client).ReadAt) }

// BenchmarkServerWrite is its write-side twin: the client sends header
// and payload as one writev from the caller's slice, and the server
// reads the payload off the socket into a pooled buffer the store call
// consumes.
func BenchmarkServerWrite(b *testing.B) { benchmarkServerIO(b, (*Client).WriteAt) }

func benchmarkServerIO(b *testing.B, op func(*Client, []byte, int64) (int, error)) {
	srv, c := startBench(b, Options{MaxInflight: 1024})
	defer srv.Close()
	defer c.Close()
	const ioSize = 64 << 10
	p := make([]byte, ioSize)
	rng := rand.New(rand.NewSource(2))
	max := c.Capacity() - ioSize
	b.SetBytes(ioSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op(c, p, rng.Int63n(max)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadResponsePathAllocBytes pins the one-copy-per-hop claim on the
// read side: in steady state a 64 KiB read must allocate only
// request-bookkeeping scraps. A server-side frame copy or a client-side
// per-frame buffer would each add >= 64 KiB/op.
func TestReadResponsePathAllocBytes(t *testing.T) {
	pinAllocBytes(t, "read", (*Client).ReadAt)
}

// TestWritePathAllocBytes is the write side of the same pin: the
// server must land the payload in a pooled buffer, not a frame made for
// it, and the client must not stage it in a frame of its own.
func TestWritePathAllocBytes(t *testing.T) {
	pinAllocBytes(t, "write", (*Client).WriteAt)
}

// pinAllocBytes bounds what both ends of the wire together allocate per
// 64 KiB op at a sixteenth of the payload: steady state is a few
// hundred bytes of bookkeeping, and the rounds are many enough that a
// GC emptying the pools mid-run (one fresh 64 KiB buffer) stays far
// under the bound while one payload-sized allocation per op cannot.
// Gated off under -race, whose instrumented sync.Pool allocates on
// every Get/Put.
func pinAllocBytes(t *testing.T, name string, op func(*Client, []byte, int64) (int, error)) {
	if testutil.RaceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	srv, c := startBench(t, Options{MaxInflight: 1024})
	defer srv.Close()
	defer c.Close()
	const ioSize = 64 << 10
	p := make([]byte, ioSize)
	const rounds = 256
	run := func() {
		for i := 0; i < rounds; i++ {
			if _, err := op(c, p, int64(i)*ioSize%(c.Capacity()-ioSize)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the pools on both ends
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%s path: %d B allocated per %d B op", name, perOp, ioSize)
	if perOp > ioSize/16 {
		t.Fatalf("%s path allocates %d B/op for %d B payloads; want < %d (payload buffers must be pooled or the caller's, end to end)", name, perOp, ioSize, ioSize/16)
	}
}
