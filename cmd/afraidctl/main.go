// Command afraidctl stands up, inspects, and heals a distributed AFRAID
// volume striped over afraidd nodes (internal/cluster). Each invocation
// opens the volume over the listed nodes, runs one subcommand, and
// exits; the volume's marking memory can be kept in a state file so
// dirty and stale maps survive between invocations and host restarts.
//
// Usage:
//
//	afraidctl -nodes host1:9323,host2:9323,host3:9323,host4:9323 status
//	afraidctl -nodes ... -state /var/lib/afraid/ctl.marks fill -bytes 16M -seed 1
//	afraidctl -nodes ... heal -node 2          # rebuild what node 2 missed
//	afraidctl -nodes ... heal -node 2 -full    # blank replacement machine
//	afraidctl -nodes ... flush                 # drain every dirty stripe
//	afraidctl -nodes ... verify                # audit parity of clean stripes
//	afraidctl -nodes ... check -bytes 16M -seed 1   # re-read a fill workload
//	afraidctl -nodes ... locate -addr 1048576  # address → (stripe, node)
//
// The node list order IS the striping geometry: keep it identical
// across invocations or the volume will look at the wrong units.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"afraid/internal/cluster"
	"afraid/internal/core"
	"afraid/internal/server"
)

func main() {
	nodes := flag.String("nodes", "", "comma-separated afraidd addresses (order = geometry, required)")
	stripe := flag.String("stripe", "64K", "cluster stripe unit (must match across invocations)")
	state := flag.String("state", "", "marking-memory file (empty = in-memory for this run only)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-node operation deadline")
	dialTO := flag.Duration("dial-timeout", 5*time.Second, "connect+handshake deadline per node")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("afraidctl: ")

	args := flag.Args()
	if *nodes == "" || len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: afraidctl -nodes a,b,c[,d...] [-stripe 64K] [-state file] <status|flush|verify|heal|fill|check|locate> [args]")
		os.Exit(2)
	}
	addrs := strings.Split(*nodes, ",")
	stripeUnit, err := parseSize(*stripe)
	if err != nil {
		log.Fatalf("-stripe: %v", err)
	}
	opts := cluster.Options{
		StripeUnit:  stripeUnit,
		NodeTimeout: *timeout,
		DialTimeout: *dialTO,
		// A short-lived control process should not race a background
		// drain against its own subcommand; drains happen via flush.
		DisableDrain: true,
		Logf:         log.Printf,
	}
	if *state != "" {
		opts.NV = core.NewFileNVRAM(*state)
	}
	v, err := cluster.Dial(addrs, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer v.Close()

	ctx := context.Background()
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "status":
		runStatus(ctx, v, addrs, *dialTO)
	case "flush":
		runFlush(ctx, v)
	case "verify":
		runVerify(ctx, v)
	case "heal":
		runHeal(ctx, v, rest)
	case "fill":
		runFill(v, rest)
	case "check":
		runCheck(v, rest)
	case "locate":
		runLocate(v, rest)
	default:
		log.Fatalf("unknown subcommand %q", cmd)
	}
}

// runStatus prints the volume view, a per-node table setting each
// daemon's own STAT beside the volume's reachability state, and the
// full key-by-node matrix of those STATs.
func runStatus(ctx context.Context, v *cluster.Volume, addrs []string, dialTO time.Duration) {
	g, vs, nodes := v.Geometry(), v.Stats(), v.NodeStates()
	fmt.Printf("volume: capacity %s, stripe unit %s, %d stripes, %d dirty",
		fmtSize(g.Capacity()), fmtSize(g.StripeUnit), g.Stripes(), vs.DirtyStripes)
	if vs.Recovered {
		fmt.Printf(" [RECOVERED: marking memory was lost, full rebuild pending]")
	}
	fmt.Println()
	fmt.Printf("  drains=%d degraded_reads=%d degraded_writes=%d healed=%d lost=%d failovers=%d high_water=%d\n",
		vs.ParityDrains, vs.DegradedReads, vs.DegradedWrites,
		vs.HealedStripes, vs.LostStripes, vs.NodeFailovers, vs.DirtyHighWater)
	fmt.Printf("  hedged=%d hedge_wins=%d retries=%d retries_exhausted=%d auto_heals=%d quarantines=%d\n",
		vs.HedgedReads, vs.HedgeWins, vs.Retries,
		vs.RetriesExhausted, vs.AutoHeals, vs.Quarantines)
	// Ask each daemon itself: its STAT snapshot, over the block protocol
	// so no metrics port is needed. A key a node does not carry (no
	// front tier, an unreachable node) renders as "-".
	stats := make([]server.Stat, len(nodes))
	for _, n := range nodes {
		if c, err := server.DialTimeout(addrs[n.Index], dialTO); err == nil {
			cctx, cancel := context.WithTimeout(ctx, dialTO)
			stats[n.Index], _ = c.Stat(cctx)
			cancel()
			c.Close()
		}
	}
	num := func(v int64) string { return strconv.FormatInt(v, 10) }
	triple := func(a, b, c string) string {
		if a == "-" {
			return "-" // the node has no such layer
		}
		return a + "/" + b + "/" + c
	}
	fmt.Printf("%-4s %-22s %-12s %-5s %-10s %-10s %-14s %-20s %s\n", "NODE", "ADDR", "STATE", "FAILS", "STALE", "NODE-DIRTY", "NODE-CAPACITY", "TIER(res/hits/mig)", "CSUM(det/rep/lost)")
	for _, n := range nodes {
		ds := stats[n.Index]
		get := func(render func(int64) string, keys ...string) string {
			var sum int64
			for _, k := range keys {
				v, ok := ds[k]
				if !ok {
					return "-"
				}
				sum += v
			}
			return render(sum)
		}
		state := n.State.String()
		if n.LastErr != "" {
			state += " (" + n.LastErr + ")"
		}
		fmt.Printf("%-4d %-22s %-12s %-5d %-10d %-10s %-14s %-20s %s\n", n.Index, n.Addr, state, n.ConsecFails, n.StaleStripes,
			get(num, "core.dirty_stripes"), get(fmtSize, "server.capacity"),
			triple(get(fmtSize, "tier.resident_bytes"), get(num, "tier.front_read_hits", "tier.front_write_hits"), get(num, "tier.promotes", "tier.demotes")),
			triple(get(num, "core.checksum_detected"), get(num, "core.checksum_repaired"), get(num, "core.checksum_lost")))
	}

	// Every key any node reported, one row each: a counter added to a
	// layer shows up here with no edit to this command.
	keys := map[string]bool{}
	for _, ds := range stats {
		for k := range ds {
			keys[k] = true
		}
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	fmt.Printf("%-32s", "KEY")
	for i := range stats {
		fmt.Printf(" %14s", "node"+strconv.Itoa(i))
	}
	fmt.Println()
	for _, k := range sorted {
		fmt.Printf("%-32s", k)
		for _, ds := range stats {
			cell := "-"
			if v, ok := ds[k]; ok {
				cell = strconv.FormatInt(v, 10)
			}
			fmt.Printf(" %14s", cell)
		}
		fmt.Println()
	}
}

func runFlush(ctx context.Context, v *cluster.Volume) {
	before := v.DirtyStripes()
	if err := v.Flush(ctx); err != nil {
		log.Fatalf("flush: %v (%d stripes still dirty)", err, v.DirtyStripes())
	}
	fmt.Printf("flushed: %d stripes drained, volume fully redundant\n", before)
}

func runVerify(ctx context.Context, v *cluster.Volume) {
	bad, skipped, err := v.VerifyParity(ctx)
	if err != nil {
		log.Fatalf("verify: %v", err)
	}
	fmt.Printf("verify: %d stripes checked clean, %d unverifiable (dirty or nodes down)\n",
		v.Geometry().Stripes()-int64(len(bad))-skipped, skipped)
	if len(bad) > 0 {
		log.Fatalf("PARITY MISMATCH in stripes %v", bad)
	}
}

func runHeal(ctx context.Context, v *cluster.Volume, args []string) {
	fs := flag.NewFlagSet("heal", flag.ExitOnError)
	node := fs.Int("node", -1, "node index to heal (required)")
	full := fs.Bool("full", false, "mark every stripe unit of the node stale, then rebuild them (blank replacement machine)")
	fs.Parse(args)
	if *node < 0 {
		log.Fatal("heal: -node required")
	}
	rep, err := v.HealNode(ctx, *node, *full)
	if err != nil {
		log.Fatalf("heal: %v", err)
	}
	fmt.Printf("heal node %d: %d stripe units rebuilt, %d skipped (retry later)\n", *node, rep.Healed, rep.Remaining)
	if len(rep.Lost) > 0 {
		log.Fatalf("DATA LOSS: %d stripes were unredundant when the node failed and cannot be rebuilt: %v\n"+
			"(rewrite them to clear; reads keep returning ErrDataLoss until then)", len(rep.Lost), rep.Lost)
	}
}

// runFill writes a deterministic pseudo-random workload — the demo/load
// half of a kill-and-heal walkthrough. check re-reads it.
func runFill(v *cluster.Volume, args []string) {
	seed, bytes := fillFlags(v, args)
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, 256<<10)
	var off int64
	for off < bytes {
		n := int64(len(buf))
		if off+n > bytes {
			n = bytes - off
		}
		rng.Read(buf[:n])
		if _, err := v.WriteAt(buf[:n], off); err != nil {
			log.Fatalf("fill at %d: %v", off, err)
		}
		off += n
	}
	fmt.Printf("filled %s (seed %d), %d stripes dirty\n", fmtSize(bytes), seed, v.DirtyStripes())
}

func runCheck(v *cluster.Volume, args []string) {
	seed, bytes := fillFlags(v, args)
	rng := rand.New(rand.NewSource(seed))
	want := make([]byte, 256<<10)
	got := make([]byte, 256<<10)
	var off, lost int64
	for off < bytes {
		n := int64(len(want))
		if off+n > bytes {
			n = bytes - off
		}
		rng.Read(want[:n])
		_, err := v.ReadAt(got[:n], off)
		switch {
		case err == nil:
			for i := int64(0); i < n; i++ {
				if got[i] != want[i] {
					log.Fatalf("SILENT CORRUPTION at byte %d: got %#x want %#x", off+i, got[i], want[i])
				}
			}
		case errors.Is(err, core.ErrDataLoss):
			lost++ // reported loss: allowed, loud, accounted
		default:
			log.Fatalf("check at %d: %v", off, err)
		}
		off += n
	}
	if lost > 0 {
		fmt.Printf("check: %s verified with %d regions reporting data loss (never silent)\n", fmtSize(bytes), lost)
		os.Exit(1)
	}
	fmt.Printf("check: %s verified byte-for-byte (seed %d)\n", fmtSize(bytes), seed)
}

func fillFlags(v *cluster.Volume, args []string) (seed, bytes int64) {
	fs := flag.NewFlagSet("fill/check", flag.ExitOnError)
	s := fs.Int64("seed", 1, "workload seed")
	b := fs.String("bytes", "16M", "workload size")
	fs.Parse(args)
	n, err := parseSize(*b)
	if err != nil {
		log.Fatalf("-bytes: %v", err)
	}
	if n > v.Capacity() {
		n = v.Capacity()
	}
	return *s, n
}

func runLocate(v *cluster.Volume, args []string) {
	fs := flag.NewFlagSet("locate", flag.ExitOnError)
	addr := fs.Int64("addr", -1, "volume byte address")
	fs.Parse(args)
	st, node, off, err := v.Locate(*addr)
	if err != nil {
		log.Fatalf("locate: %v", err)
	}
	g := v.Geometry()
	fmt.Printf("address %d: stripe %d, data on node %d at offset %d, parity on node %d\n",
		*addr, st, node, off, g.ParityDisk(st))
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
