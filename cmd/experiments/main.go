// Command experiments regenerates the paper's evaluation: Table 2 /
// Figure 2 (relative performance), Table 3 and Table 4 (availability),
// Figure 3 (performance/availability tradeoff), Figure 4 (per-trace
// policy curves), and the DESIGN.md ablation sweeps.
//
// Usage:
//
//	experiments [-exp all|table2|table3|table4|fig3|fig4|ablation] [-dur 60s] [-seed 1996]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"afraid/internal/exp"
)

func main() {
	which := flag.String("exp", "all", "experiment: all, table2, table3, table4, fig3, fig4, ablation")
	dur := flag.Duration("dur", 60*time.Second, "synthetic trace duration per workload")
	seed := flag.Uint64("seed", 1996, "workload generator seed")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: all)")
	flag.Parse()

	cfg := exp.Config{Duration: *dur, Seed: *seed}
	if *workloads != "" {
		cfg.Workloads = strings.Split(*workloads, ",")
	}
	if err := render(os.Stdout, *which, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, errUnknown) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

var errUnknown = errors.New("unknown experiment")

// gridSections are the experiments drawn from the policy grid, in the
// order -exp all prints them.
var gridSections = []struct {
	name string
	text func(*exp.Grid) string
}{
	{"table2", (*exp.Grid).Table2},
	{"table3", (*exp.Grid).Table3},
	{"table4", (*exp.Grid).Table4},
	{"fig3", (*exp.Grid).Figure3Text},
	{"fig4", (*exp.Grid).Figure4Text},
}

// render writes the named experiment's text to w.
func render(w io.Writer, which string, cfg exp.Config) error {
	known := which == "all" || which == "ablation"
	var grid *exp.Grid
	for _, s := range gridSections {
		if which != "all" && which != s.name {
			continue
		}
		known = true
		if grid == nil {
			g, err := exp.Run(cfg)
			if err != nil {
				return err
			}
			grid = g
		}
		fmt.Fprintln(w, s.text(grid))
	}
	if !known {
		return fmt.Errorf("%w %q", errUnknown, which)
	}
	if which == "all" || which == "ablation" {
		return runAblations(w, cfg.Duration, cfg.Seed)
	}
	return nil
}

func runAblations(w io.Writer, dur time.Duration, seed uint64) error {
	idle, err := exp.IdleDelaySweep("cello-usr", dur, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, exp.RenderAblation("Ablation: idle-detection threshold (cello-usr)", idle))

	th, err := exp.DirtyThresholdSweep("att", dur, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, exp.RenderAblation("Ablation: dirty-stripe threshold (att)", th))

	co, err := exp.CoalesceSweep("netware", dur, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, exp.RenderAblation("Ablation: adjacent-stripe rebuild coalescing (netware)", co))

	width, err := exp.WidthSweep("cello-usr", dur, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, exp.RenderWidth(width))

	gran, err := exp.GranularitySweep("cello-news", dur, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, exp.RenderAblation("Extension (§5): sub-stripe marking granularity (cello-news)", gran))

	cons, err := exp.ConservativeSweep("att", dur, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, exp.RenderAblation("Extension (§5): conservative start (att)", cons))

	rel, err := exp.RelatedWorkSweep("att", dur, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, exp.RenderRelatedWork("att", rel))

	r6, err := exp.RAID6Sweep("att", dur, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, exp.RenderRAID6("att", r6))

	deg, err := exp.DegradedSweep("cello-usr", dur, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, exp.RenderDegraded("cello-usr", deg))
	return nil
}
