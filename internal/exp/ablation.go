package exp

import (
	"fmt"
	"strings"
	"time"

	"afraid/internal/array"
	"afraid/internal/cache"
	"afraid/internal/disk"
	"afraid/internal/layout"
	"afraid/internal/sim"
	"afraid/internal/trace"
)

// AblationResult is one row of an ablation sweep.
type AblationResult struct {
	Label   string
	Metrics array.Metrics
}

// runOn generates the workload trace once and replays it under cfg.
func runOn(cfg array.Config, workload string, d time.Duration, seed uint64) (array.Metrics, error) {
	params, err := trace.Lookup(workload, d)
	if err != nil {
		return array.Metrics{}, err
	}
	tr, err := trace.Generate(params, cfg.Geometry.Capacity(), sim.NewRNG(seed))
	if err != nil {
		return array.Metrics{}, err
	}
	return array.RunTrace(cfg, tr)
}

// IdleDelaySweep measures how the idle-detection threshold trades
// exposure (unprotected fraction) against foreground interference
// (mean I/O time). DESIGN.md ablation #1.
func IdleDelaySweep(workload string, d time.Duration, seed uint64) ([]AblationResult, error) {
	var out []AblationResult
	for _, delay := range []time.Duration{
		10 * time.Millisecond, 30 * time.Millisecond, 100 * time.Millisecond,
		300 * time.Millisecond, time.Second,
	} {
		cfg := array.DefaultConfig(array.AFRAID)
		cfg.Policy.IdleDelay = delay
		m, err := runOn(cfg, workload, d, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Label: delay.String(), Metrics: m})
	}
	return out, nil
}

// DirtyThresholdSweep measures the stripe-count bound's effect on peak
// parity lag and performance. DESIGN.md ablation #2.
func DirtyThresholdSweep(workload string, d time.Duration, seed uint64) ([]AblationResult, error) {
	var out []AblationResult
	for _, th := range []int{0, 5, 20, 50, 100} {
		cfg := array.DefaultConfig(array.AFRAID)
		cfg.Policy.DirtyThreshold = th
		m, err := runOn(cfg, workload, d, seed)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("th=%d", th)
		if th == 0 {
			label = "unbounded"
		}
		out = append(out, AblationResult{Label: label, Metrics: m})
	}
	return out, nil
}

// CoalesceSweep compares rebuild with and without adjacent-stripe
// coalescing (an optimization the paper mentions but did not model).
// DESIGN.md ablation #3.
func CoalesceSweep(workload string, d time.Duration, seed uint64) ([]AblationResult, error) {
	var out []AblationResult
	for _, on := range []bool{false, true} {
		cfg := array.DefaultConfig(array.AFRAID)
		cfg.Policy.CoalesceAdjacent = on
		m, err := runOn(cfg, workload, d, seed)
		if err != nil {
			return nil, err
		}
		label := "coalesce=off"
		if on {
			label = "coalesce=on"
		}
		out = append(out, AblationResult{Label: label, Metrics: m})
	}
	return out, nil
}

// WidthResult is one row of the stripe-width sweep.
type WidthResult struct {
	Disks      int
	AFRAID     array.Metrics
	RAID5      array.Metrics
	SpeedupX   float64
	FracUnprot float64
}

// WidthSweep varies the number of disks. The paper notes AFRAID's
// parity-rebuild overhead is linear in stripe width, so it "is best
// suited to arrays with smaller numbers of disks". DESIGN.md ablation #4.
func WidthSweep(workload string, d time.Duration, seed uint64) ([]WidthResult, error) {
	var out []WidthResult
	for _, n := range []int{3, 4, 5, 7, 9} {
		mk := func(mode array.Mode) array.Config {
			cfg := array.DefaultConfig(mode)
			p := disk.C3325()
			unit := int64(8 << 10)
			cfg.Geometry = layout.Geometry{
				Disks:      n,
				StripeUnit: unit,
				DiskSize:   p.CapacityBytes() / unit * unit,
				Level:      cfg.Geometry.Level,
			}
			cfg.Cache = cache.Config{BlockSize: unit, ReadBytes: 256 << 10, WriteBytes: 256 << 10}
			return cfg
		}
		// Size the trace to the narrowest capacity used (RAID5 at n disks).
		cfg5 := mk(array.RAID5)
		params, err := trace.Lookup(workload, d)
		if err != nil {
			return nil, err
		}
		tr, err := trace.Generate(params, cfg5.Geometry.Capacity(), sim.NewRNG(seed))
		if err != nil {
			return nil, err
		}
		m5, err := array.RunTrace(cfg5, tr)
		if err != nil {
			return nil, err
		}
		ma, err := array.RunTrace(mk(array.AFRAID), tr)
		if err != nil {
			return nil, err
		}
		out = append(out, WidthResult{
			Disks:      n,
			AFRAID:     ma,
			RAID5:      m5,
			SpeedupX:   float64(m5.MeanIOTime) / float64(ma.MeanIOTime),
			FracUnprot: ma.FracUnprotected,
		})
	}
	return out, nil
}

// RenderAblation renders a generic ablation table.
func RenderAblation(title string, rows []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %10s %10s %12s %12s %10s\n",
		"variant", "meanIO(ms)", "unprot(%)", "lag(KB)", "maxlag(KB)", "cutShort")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.2f %10.2f %12.1f %12.1f %10d\n",
			r.Label,
			float64(r.Metrics.MeanIOTime)/1e6,
			100*r.Metrics.FracUnprotected,
			r.Metrics.MeanParityLag/1e3,
			r.Metrics.MaxParityLag/1e3,
			r.Metrics.EpisodesCutShort)
	}
	return b.String()
}

// RenderWidth renders the stripe-width sweep.
func RenderWidth(rows []WidthResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: stripe width (paper: AFRAID best suited to small arrays)\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %10s %10s\n", "disks", "RAID5(ms)", "AFRAID(ms)", "speedup", "unprot(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %12.2f %12.2f %9.2fx %10.2f\n",
			r.Disks,
			float64(r.RAID5.MeanIOTime)/1e6,
			float64(r.AFRAID.MeanIOTime)/1e6,
			r.SpeedupX,
			100*r.FracUnprot)
	}
	return b.String()
}
