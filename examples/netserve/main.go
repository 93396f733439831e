// Netserve: serve an AFRAID store over TCP and drive it with concurrent
// network clients — the request path a production array actually sees.
// An in-process server on a loopback port, four clients writing and
// reading in parallel, a STAT over the wire, the metrics snapshot, and
// a graceful drain.
//
//	go run ./examples/netserve
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"afraid/internal/core"
	"afraid/internal/server"
)

func main() {
	// A 5-disk AFRAID store; the server layers the block protocol over
	// it. cmd/afraidd is the standalone version of this wiring.
	devs := make([]core.BlockDevice, 5)
	for i := range devs {
		devs[i] = core.NewMemDevice(8 << 20)
	}
	store, err := core.Open(devs, &core.MemNVRAM{}, core.Options{
		Mode:      core.Afraid,
		ScrubIdle: 20 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	srv := server.New(store, server.Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(lis)
	addr := lis.Addr().String()
	fmt.Printf("afraid block service on %s\n", addr)

	// Four concurrent clients, each hammering its own region with 4 KB
	// writes then reading them back. Request IDs let each connection
	// keep many requests in flight and complete them out of order.
	const clients = 4
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			base := int64(w) * (c.Capacity() / clients)
			buf := make([]byte, 4<<10)
			for i := range buf {
				buf[i] = byte(w + i)
			}
			for i := 0; i < 64; i++ {
				if _, err := c.WriteAt(buf, base+int64(i)*int64(len(buf))); err != nil {
					log.Fatalf("client %d write: %v", w, err)
				}
			}
			got := make([]byte, len(buf))
			if _, err := c.ReadAt(got, base); err != nil {
				log.Fatalf("client %d read: %v", w, err)
			}
			fmt.Printf("client %d: wrote+verified 256 KB at offset %d\n", w, base)
		}()
	}
	wg.Wait()

	// STAT travels the same wire as the data path.
	c, err := server.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	st, err := c.Stat(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("STAT: mode=%s writes=%d dirty-stripes=%d (parity deferred, data already durable)\n",
		st.ModeString(), st["core.writes"], st["core.dirty_stripes"])
	// The same snapshot carries the server's latency percentiles — the
	// paper's response-time metric, live instead of simulated.
	us := func(key string) time.Duration { return time.Duration(st[key]).Round(time.Microsecond) }
	fmt.Printf("STAT: write latency p50=%v p95=%v p99=%v\n",
		us("server.write_p50_ns"), us("server.write_p95_ns"), us("server.write_p99_ns"))

	// FLUSH is the whole-array parity point.
	if err := c.Flush(context.Background()); err != nil {
		log.Fatal(err)
	}
	st, _ = c.Stat(context.Background())
	fmt.Printf("after FLUSH: dirty-stripes=%d\n", st["core.dirty_stripes"])
	c.Close()

	// Every counter of every layer is a key of that one snapshot; afraidd
	// serves the same map as JSON on /metrics.
	fmt.Printf("snapshot: %v\n", st)

	// Graceful drain: in-flight requests finish, responses flush, then
	// connections close.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")

	// Degraded-state snapshot — the core.dead_disks / core.damage_bytes
	// keys of STAT. Healthy here, but this is where dead members and
	// realized data loss would show up.
	stats := store.Stats()
	fmt.Printf("store health: dead-disks=%v damage-bytes=%d damaged-stripes=%d recovered-stripes=%d\n",
		store.DeadDisks(), stats.DamageBytes, stats.DamagedStripes, stats.RecoveredStripes)
}
