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
func BenchmarkServerThroughput(b *testing.B) {
	b.Run("afraid", func(b *testing.B) { benchmarkServerWrites(b, core.Afraid) })
	b.Run("raid5", func(b *testing.B) { benchmarkServerWrites(b, core.Raid5) })
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

// startReadBench brings up a served store with every block written and
// returns a connected client. The caller owns both shutdowns.
func startReadBench(tb testing.TB) (*Server, *Client) {
	tb.Helper()
	devs := make([]core.BlockDevice, 5)
	for i := range devs {
		devs[i] = core.NewMemDevice(8 << 20)
	}
	st, err := core.Open(devs, &core.MemNVRAM{}, core.Options{Mode: core.Afraid})
	if err != nil {
		tb.Fatal(err)
	}
	srv := New(st, Options{MaxInflight: 1024})
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
// frame, and the client lands each response in a pooled buffer, so
// B/op here should sit far below the 64 KiB payload.
func BenchmarkServerRead(b *testing.B) {
	srv, c := startReadBench(b)
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
		if _, err := c.ReadAt(p, rng.Int63n(max)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadResponsePathAllocBytes pins the zero-copy claim: in steady
// state a 64 KiB read must allocate only request-bookkeeping scraps,
// not payload-sized buffers. Both a server-side frame copy and a
// client-side per-frame allocation would each add >= 64 KiB/op and
// trip the bound. Gated off under -race, whose instrumented sync.Pool
// allocates on every Get/Put.
func TestReadResponsePathAllocBytes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	srv, c := startReadBench(t)
	defer srv.Close()
	defer c.Close()
	const ioSize = 64 << 10
	p := make([]byte, ioSize)
	for i := 0; i < 64; i++ { // warm the pools on both ends
		if _, err := c.ReadAt(p, int64(i)*ioSize%(c.Capacity()-ioSize)); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, err := c.ReadAt(p, int64(i)*ioSize%(c.Capacity()-ioSize)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("read path: %d B allocated per %d B read", perOp, ioSize)
	if perOp > ioSize/8 {
		t.Fatalf("read response path allocates %d B/op for %d B payloads; want < %d (payload buffers must be pooled end to end)", perOp, ioSize, ioSize/8)
	}
}
