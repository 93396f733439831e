// Command afraidsim runs one simulation: a workload (named catalog
// entry or trace file) against an array mode and policy, and prints the
// performance and availability metrics.
//
// Usage:
//
//	afraidsim -mode afraid -workload cello-usr -dur 60s
//	afraidsim -mode raid5 -trace /path/to/trace.txt
//	afraidsim -mode afraid -target 1.5e6 -threshold 20 -workload att
//	afraidsim -mode afraid6-pq -workload att
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"afraid"
)

func main() {
	mode := flag.String("mode", "afraid", "array mode: raid0, raid5, afraid, paritylog, raid6, afraid6, afraid6-pq")
	workload := flag.String("workload", "cello-usr", "named workload from the catalog")
	traceFile := flag.String("trace", "", "trace file (overrides -workload)")
	dur := flag.Duration("dur", 60*time.Second, "synthetic trace duration")
	seed := flag.Uint64("seed", 1, "workload generator seed")
	idleDelay := flag.Duration("idle", 0, "idle-detection threshold (default 100ms)")
	threshold := flag.Int("threshold", 0, "dirty-stripe threshold (0 = unbounded)")
	target := flag.Float64("target", 0, "MTTDL_x target in hours (0 = pure AFRAID)")
	coalesce := flag.Bool("coalesce", false, "coalesce adjacent stripe rebuilds")
	gran := flag.Int("granularity", 0, "sub-stripe marking slots per stripe (§5; AFRAID mode)")
	conservative := flag.Bool("conservative", false, "start in RAID5 mode until idle headroom is observed (§5)")
	flag.Parse()

	var m afraid.SimMode
	switch *mode {
	case "raid0":
		m = afraid.SimRAID0
	case "raid5":
		m = afraid.SimRAID5
	case "afraid":
		m = afraid.SimAFRAID
	case "paritylog":
		m = afraid.SimPARITYLOG
	case "raid6":
		m = afraid.SimRAID6
	case "afraid6":
		m = afraid.SimAFRAID6
	case "afraid6-pq":
		m = afraid.SimAFRAID6PQ
	default:
		fmt.Fprintf(os.Stderr, "afraidsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	cfg := afraid.DefaultSimConfig(m)
	cfg.Policy.IdleDelay = *idleDelay
	cfg.Policy.DirtyThreshold = *threshold
	cfg.Policy.TargetMTTDL = *target
	cfg.Policy.CoalesceAdjacent = *coalesce
	cfg.Policy.MarkGranularity = *gran
	cfg.Policy.ConservativeStart = *conservative

	var metrics afraid.SimMetrics
	var err error
	if *traceFile != "" {
		f, ferr := os.Open(*traceFile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "afraidsim:", ferr)
			os.Exit(1)
		}
		tr, terr := afraid.ReadTrace(f)
		f.Close()
		if terr != nil {
			fmt.Fprintln(os.Stderr, "afraidsim:", terr)
			os.Exit(1)
		}
		metrics, err = afraid.SimulateTrace(cfg, tr)
	} else {
		metrics, err = afraid.SimulateWorkload(cfg, *workload, *dur, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "afraidsim:", err)
		os.Exit(1)
	}

	fmt.Printf("mode            %v\n", metrics.Mode)
	fmt.Printf("requests        %d (%d reads, %d writes)\n", metrics.Completed, metrics.Reads, metrics.Writes)
	fmt.Printf("mean I/O time   %v (reads %v, writes %v)\n",
		metrics.MeanIOTime.Round(time.Microsecond),
		metrics.MeanRead.Round(time.Microsecond),
		metrics.MeanWrite.Round(time.Microsecond))
	fmt.Printf("p95 / p99 / max %v / %v / %v\n",
		metrics.P95IOTime.Round(time.Microsecond),
		metrics.P99IOTime.Round(time.Microsecond),
		metrics.MaxIOTime.Round(time.Microsecond))
	fmt.Printf("trace time      %v\n", metrics.EndTime.Round(time.Millisecond))
	if m == afraid.SimPARITYLOG {
		fmt.Printf("parity log     %d buffer flushes, %d reintegrations, %d stalled writes\n",
			metrics.LogFlushes, metrics.Reintegrations, metrics.LogStalls)
	}
	if par, sync := m.Parities(); sync < par {
		fmt.Printf("unprotected     %.2f%% of the run\n", 100*metrics.FracUnprotected)
		fmt.Printf("parity lag      mean %.1f KB, max %.1f KB\n", metrics.MeanParityLag/1e3, metrics.MaxParityLag/1e3)
		fmt.Printf("rebuilds        %d stripes in %d episodes (%d cut short, %d forced)\n",
			metrics.RebuiltStripes, metrics.RebuildEpisodes, metrics.EpisodesCutShort, metrics.ForcedStripes)
		if *target > 0 {
			fmt.Printf("MTTDL_x         %d reverts, %v in RAID5 mode\n", metrics.Reverts, metrics.RevertedTime.Round(time.Millisecond))
		}
		ap := afraid.DefaultAvailParams()
		rep := ap.AFRAIDReport(metrics.FracUnprotected, metrics.MeanParityLag)
		if par == 2 {
			rep = ap.AFRAID6Report(metrics.FracUnprotected, metrics.MeanParityLag, sync)
		}
		fmt.Printf("disk MTTDL      %.3g h (overall %.3g h with support hardware)\n", rep.DiskMTTDL, rep.OverallMTTDL)
		fmt.Printf("disk MDLR       %.3g B/h\n", rep.DiskMDLR)
	}
}
