// Command afraidd serves an AFRAID store as a network block service:
// the length-prefixed binary protocol of internal/server over TCP, with
// a JSON metrics endpoint, per-request deadlines, bounded in-flight
// backpressure, and graceful drain on SIGINT/SIGTERM. Every request
// frame is one call into the store.
//
// Usage:
//
//	afraidd -listen :9323 -metrics 127.0.0.1:9324 -disks 5 -size 256M
//	afraidd -dir /var/lib/afraid -mode afraid          # file-backed, crash-safe
//	afraidd -mode raid5 -inflight 64 -timeout 10s      # always-redundant
//	afraidd -tier-disks 2 -tier-size 64M               # hybrid: mirrored front tier
//
// With -dir the member disks and the NVRAM marking memory live in
// files, so a restart resumes the parity rebuild exactly where the
// paper's crash recovery would. Every mode with parity — raid5 and raid6
// too — marks a stripe while a write to it is in flight, so each needs
// -dir for crash consistency.
//
// -checksums verifies what the parity store reads from its disks. A read
// its controller read cache serves is copied from memory: bytes verified
// on their way in, or that a client wrote (DESIGN.md §7 *Read cache*;
// the cache engages only over disks slower than a memory copy). With
// -tier-disks,
// extents resident in the mirrored front tier are served from, and
// demoted from, unverified front copies (DESIGN.md §8); afraidd says so
// once at start-up.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"afraid/internal/core"
	"afraid/internal/obs"
	"afraid/internal/server"
	"afraid/internal/tier"
)

func main() {
	listen := flag.String("listen", ":9323", "block service listen address")
	metricsAddr := flag.String("metrics", "127.0.0.1:9324", "metrics HTTP listen address (empty disables)")
	disks := flag.Int("disks", 5, "member disks")
	size := flag.String("size", "256M", "per-disk size (K/M/G suffixes)")
	dir := flag.String("dir", "", "directory for file-backed disks and NVRAM (empty = in-memory; every mode with parity, raid5 and raid6 included, needs it for crash consistency)")
	prealloc := flag.Bool("prealloc", false, "preallocate file-backed disk images at startup (fallocate)")
	mode := flag.String("mode", "afraid", "redundancy mode: afraid, raid5, raid0, raid6, afraid6")
	stripe := flag.String("stripe", "8K", "stripe unit size")
	scrubIdle := flag.Duration("scrub-idle", 100*time.Millisecond, "idle threshold before parity rebuild")
	dirtyThreshold := flag.Int("dirty-threshold", 0, "scrub under load past this many dirty stripes (0 = idle-only)")
	checksums := flag.Bool("checksums", false, "per-block CRC32C on the parity store: verify its disk reads, repair silent corruption from redundancy (a read cache hit is served from memory, from bytes verified on their way in or written by a client; with -tier-disks, front-resident extents are served and demoted unverified)")
	tierDisks := flag.Int("tier-disks", 0, "mirrored front-tier devices (even, 0 disables the hybrid tier)")
	tierSize := flag.String("tier-size", "64M", "per-device front-tier size")
	tierExtent := flag.String("tier-extent", "64K", "front-tier migration extent size (power of two)")
	tierMaxDirty := flag.String("tier-max-dirty", "0", "front-tier dirty-bytes pressure valve (0 = half the front capacity)")
	tierIdle := flag.Duration("tier-idle", 50*time.Millisecond, "idle threshold before cold extents demote to the back tier")
	inflight := flag.Int("inflight", 0, "max in-flight requests before ERR_BUSY (0 = default 256); a connection starts a handler only when none of its own is idle")
	timeout := flag.Duration("timeout", 0, "per-request deadline (0 = default 30s)")
	drain := flag.Duration("drain", 30*time.Second, "graceful drain budget on shutdown")
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("afraidd: ")

	m, err := core.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	diskSize, err := parseSize(*size)
	if err != nil {
		log.Fatalf("-size: %v", err)
	}
	stripeUnit, err := parseSize(*stripe)
	if err != nil {
		log.Fatalf("-stripe: %v", err)
	}

	devs, nv, err := openBacking(*dir, "disk%d.img", "nvram.bin", *disks, diskSize, *prealloc)
	if err != nil {
		log.Fatal(err)
	}
	st, err := core.Open(devs, nv, core.Options{
		Mode:           m,
		StripeUnit:     stripeUnit,
		ScrubIdle:      *scrubIdle,
		DirtyThreshold: *dirtyThreshold,
		Checksums:      *checksums,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("store: %d×%s %s, capacity %s, %d dirty stripes carried over",
		*disks, *size, m, fmtSize(st.Capacity()), st.DirtyStripes())

	// Optional hybrid front tier: mirrored write-back staging over the
	// parity store, à la HP AutoRAID.
	var hybrid *tier.Store
	backend := server.Backend(st)
	if *tierDisks > 0 {
		tSize, err := parseSize(*tierSize)
		if err != nil {
			log.Fatalf("-tier-size: %v", err)
		}
		tExtent, err := parseSize(*tierExtent)
		if err != nil {
			log.Fatalf("-tier-extent: %v", err)
		}
		tMaxDirty, err := parseSize(*tierMaxDirty)
		if err != nil && *tierMaxDirty != "0" {
			log.Fatalf("-tier-max-dirty: %v", err)
		}
		if *tierMaxDirty == "0" {
			tMaxDirty = 0
		}
		front, tnv, err := openBacking(*dir, "tier%d.img", "tier-map.bin", *tierDisks, tSize, *prealloc)
		if err != nil {
			log.Fatal(err)
		}
		hybrid, err = tier.Open(st, front, tnv, tier.Options{
			ExtentSize:    tExtent,
			MaxDirtyBytes: tMaxDirty,
			IdleDelay:     *tierIdle,
		})
		if err != nil {
			log.Fatal(err)
		}
		backend = hybrid
		ts := hybrid.TierStats()
		log.Printf("tier: %d×%s mirrored front, extent %s, %d extents recovered resident (%s dirty)",
			*tierDisks, fmtSize(tSize), fmtSize(tExtent), ts.ResidentExtents, fmtSize(ts.DirtyBytes))
		if *checksums {
			log.Printf("tier: -checksums covers the parity store only; front-resident extents are served and demoted unverified")
		}
	}

	srv := server.New(backend, server.Options{
		MaxInflight:    *inflight,
		RequestTimeout: *timeout,
		Logf:           log.Printf,
	})

	if *metricsAddr != "" {
		mux := debugMux(srv, st, hybrid)
		go func() {
			log.Printf("metrics: http://%s/metrics (histograms at /debug/histograms, pprof at /debug/pprof/)", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("metrics endpoint: %v", err)
			}
		}()
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("%v: draining (budget %v)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
	}()

	log.Printf("serving on %s", *listen)
	if err := srv.ListenAndServe(*listen); err != nil && err != server.ErrServerClosed {
		log.Fatal(err)
	}
	// Drained: make the array fully redundant before exit so the next
	// start carries over no dirty stripes (file-backed NVRAM would
	// resume them anyway; this is the clean-shutdown parity point). With
	// a hybrid tier the flush also demotes every dirty front extent.
	if hybrid != nil {
		if err := hybrid.Flush(); err != nil {
			log.Printf("final tier flush: %v", err)
		}
		if err := hybrid.Close(); err != nil {
			log.Printf("tier close: %v", err)
		}
	} else if err := st.Flush(); err != nil {
		log.Printf("final flush: %v", err)
	}
	if err := st.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	log.Printf("bye")
}

// debugMux builds the metrics endpoint. /metrics is the snapshot a STAT
// request returns, as one flat JSON object: the block port and the
// metrics port show the same keys (DESIGN.md has the glossary).
func debugMux(srv *server.Server, st *core.Store, hybrid *tier.Store) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.JSONHandler(func() any { return srv.Stat() }))
	// Latency histograms and op traces from every layer: the server's
	// per-op and queue/service split, and the store's per-phase
	// (stripe-lock wait, device I/O, parity, scrub).
	sections := []obs.Section{
		{Name: "server", Reg: srv.Metrics().Obs()},
		{Name: "core", Reg: st.Obs()},
	}
	if hybrid != nil {
		sections = append(sections, obs.Section{Name: "tier", Reg: hybrid.Obs()})
	}
	mux.Handle("/debug/histograms", obs.HistogramHandler(sections...))
	mux.Handle("/debug/trace", obs.TraceHandler(sections...))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// parseSize reads "8K", "256M", "2G", or plain bytes.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func fmtSize(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// openBacking builds n member devices and their NVRAM: files under dir
// when set (durable across restarts) — the devices named by the pattern
// devName with their index, the NVRAM nvName — and memory otherwise. The
// array's are disk%d.img and nvram.bin, the front tier's tier%d.img and
// tier-map.bin.
func openBacking(dir, devName, nvName string, n int, size int64, prealloc bool) ([]core.BlockDevice, core.NVRAM, error) {
	devs := make([]core.BlockDevice, n)
	if dir == "" {
		for i := range devs {
			devs[i] = core.NewMemDevice(size)
		}
		return devs, &core.MemNVRAM{}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	for i := range devs {
		d, err := core.OpenFileDevice(filepath.Join(dir, fmt.Sprintf(devName, i)), size, prealloc)
		if err != nil {
			return nil, nil, err
		}
		devs[i] = d
	}
	return devs, core.NewFileNVRAM(filepath.Join(dir, nvName)), nil
}
