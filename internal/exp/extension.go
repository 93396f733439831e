package exp

import (
	"fmt"
	"strings"
	"time"

	"afraid/internal/array"
	"afraid/internal/avail"
	"afraid/internal/sim"
	"afraid/internal/trace"
)

// RelatedWorkRow compares AFRAID against the §2 baselines.
type RelatedWorkRow struct {
	Label   string
	Metrics array.Metrics
}

// RelatedWorkSweep compares RAID 5, parity logging (roomy and starved
// logs), and AFRAID on one workload — the §2 argument that AFRAID has
// "no parity log to fill up".
func RelatedWorkSweep(workload string, d time.Duration, seed uint64) ([]RelatedWorkRow, error) {
	params, err := trace.Lookup(workload, d)
	if err != nil {
		return nil, err
	}
	mk := func(mode array.Mode, logBytes int64) array.Config {
		cfg := array.DefaultConfig(mode)
		if mode == array.PARITYLOG && logBytes > 0 {
			cfg.PLog.LogBytes = logBytes
			cfg.Geometry.DiskSize = (cfg.Disk.CapacityBytes() - logBytes) /
				cfg.Geometry.StripeUnit * cfg.Geometry.StripeUnit
		}
		return cfg
	}
	// One trace sized to the smallest client capacity in the sweep.
	smallest := mk(array.PARITYLOG, 0).Geometry.Capacity()
	tr, err := trace.Generate(params, smallest, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	var out []RelatedWorkRow
	for _, c := range []struct {
		label string
		cfg   array.Config
	}{
		{"RAID5", mk(array.RAID5, 0)},
		{"plog-2MB", mk(array.PARITYLOG, 0)},
		{"plog-128KB", mk(array.PARITYLOG, 128<<10)},
		{"AFRAID", mk(array.AFRAID, 0)},
	} {
		m, err := array.RunTrace(c.cfg, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, RelatedWorkRow{Label: c.label, Metrics: m})
	}
	return out, nil
}

// RenderRelatedWork renders the §2 comparison.
func RenderRelatedWork(workload string, rows []RelatedWorkRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Related work (§2): AFRAID vs parity logging (%s)\n", workload)
	fmt.Fprintf(&b, "%-12s %10s %8s %10s %8s %10s\n",
		"variant", "meanIO(ms)", "p99(ms)", "stalls", "reinteg", "unprot(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.2f %8.1f %10d %8d %10.2f\n",
			r.Label,
			float64(r.Metrics.MeanIOTime)/1e6,
			float64(r.Metrics.P99IOTime)/1e6,
			r.Metrics.LogStalls,
			r.Metrics.Reintegrations,
			100*r.Metrics.FracUnprotected)
	}
	return b.String()
}

// RAID6Row is one row of the §5 double-parity sweep.
type RAID6Row struct {
	Label   string
	Metrics array.Metrics
	Avail   avail.Report
}

// RAID6Sweep runs the §5 extension: RAID 5, RAID 6, AFRAID6 deferring
// Q, AFRAID6 deferring both, and plain AFRAID.
func RAID6Sweep(workload string, d time.Duration, seed uint64) ([]RAID6Row, error) {
	params, err := trace.Lookup(workload, d)
	if err != nil {
		return nil, err
	}
	// RAID 6 geometry has the smallest client capacity (two parity
	// units per stripe).
	smallest := array.DefaultConfig(array.RAID6).Geometry.Capacity()
	tr, err := trace.Generate(params, smallest, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	ap := avail.Default()
	var out []RAID6Row
	for _, v := range []struct {
		label string
		mode  array.Mode
	}{
		{"RAID5", array.RAID5},
		{"RAID6", array.RAID6},
		{"AFRAID6-q", array.AFRAID6},
		{"AFRAID6-pq", array.AFRAID6PQ},
		{"AFRAID", array.AFRAID},
	} {
		m, err := array.RunTrace(array.DefaultConfig(v.mode), tr)
		if err != nil {
			return nil, err
		}
		var rep avail.Report
		switch v.mode {
		case array.RAID5:
			rep = ap.RAID5Report()
		case array.RAID6:
			rep = ap.AFRAID6Report(0, 0, 1)
		case array.AFRAID6, array.AFRAID6PQ:
			_, sync := v.mode.Parities()
			rep = ap.AFRAID6Report(m.FracUnprotected, m.MeanParityLag, sync)
		default:
			rep = ap.AFRAIDReport(m.FracUnprotected, m.MeanParityLag)
		}
		out = append(out, RAID6Row{Label: v.label, Metrics: m, Avail: rep})
	}
	return out, nil
}

// RenderRAID6 renders the §5 double-parity sweep.
func RenderRAID6(workload string, rows []RAID6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension (§5): AFRAID + RAID 6 deferred parity (%s)\n", workload)
	fmt.Fprintf(&b, "%-12s %10s %10s %14s %12s\n",
		"variant", "meanIO(ms)", "unprot(%)", "diskMTTDL(h)", "MDLR(B/h)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.2f %10.2f %14.3g %12.3g\n",
			r.Label,
			float64(r.Metrics.MeanIOTime)/1e6,
			100*r.Metrics.FracUnprotected,
			r.Avail.DiskMTTDL,
			r.Avail.DiskMDLR)
	}
	return b.String()
}

// GranularitySweep measures the §5 sub-stripe marking extension on a
// workload with sub-unit writes: finer marking shrinks the exposed
// bytes at the cost of more marking memory.
func GranularitySweep(workload string, d time.Duration, seed uint64) ([]AblationResult, error) {
	var out []AblationResult
	for _, m := range []int{1, 2, 4, 8} {
		cfg := array.DefaultConfig(array.AFRAID)
		cfg.Policy.MarkGranularity = m
		res, err := runOn(cfg, workload, d, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Label: fmt.Sprintf("M=%d", m), Metrics: res})
	}
	return out, nil
}

// ConservativeSweep compares cold-start behaviour with and without the
// §5 conservative-start refinement.
func ConservativeSweep(workload string, d time.Duration, seed uint64) ([]AblationResult, error) {
	var out []AblationResult
	for _, on := range []bool{false, true} {
		cfg := array.DefaultConfig(array.AFRAID)
		cfg.Policy.ConservativeStart = on
		m, err := runOn(cfg, workload, d, seed)
		if err != nil {
			return nil, err
		}
		label := "immediate"
		if on {
			label = "conservative"
		}
		out = append(out, AblationResult{Label: label, Metrics: m})
	}
	return out, nil
}

// DegradedRow is one row of the failure-injection study.
type DegradedRow struct {
	Label   string
	Metrics array.Metrics
}

// DegradedSweep injects a disk failure halfway through the trace with a
// hot-spare rebuild and compares how RAID 5 and AFRAID ride through it:
// degraded-mode latency, rebuild time, and — the paper's exposure made
// concrete — the stripe units AFRAID actually loses at the instant of
// failure.
func DegradedSweep(workload string, d time.Duration, seed uint64) ([]DegradedRow, error) {
	params, err := trace.Lookup(workload, d)
	if err != nil {
		return nil, err
	}
	mk := func(mode array.Mode) array.Config {
		cfg := array.DefaultConfig(mode)
		cfg.Fault = array.Fault{At: d / 2, Disk: 1, SpareRebuild: true}
		return cfg
	}
	capacity := mk(array.RAID5).Geometry.Capacity()
	tr, err := trace.Generate(params, capacity, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	var out []DegradedRow
	for _, v := range []struct {
		label string
		mode  array.Mode
	}{
		{"RAID5", array.RAID5},
		{"AFRAID", array.AFRAID},
	} {
		m, err := array.RunTrace(mk(v.mode), tr)
		if err != nil {
			return nil, err
		}
		out = append(out, DegradedRow{Label: v.label, Metrics: m})
	}
	return out, nil
}

// RenderDegraded renders the failure-injection study.
func RenderDegraded(workload string, rows []DegradedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Degraded-mode study: mid-trace disk failure with hot-spare rebuild (%s)\n", workload)
	fmt.Fprintf(&b, "%-8s %10s %10s %12s %12s %10s\n",
		"variant", "meanIO(ms)", "degReads", "rebuild(s)", "lostUnits", "dirtyEnd")
	for _, r := range rows {
		rebuild := float64(0)
		if r.Metrics.RebuildDoneAt > 0 {
			rebuild = (r.Metrics.RebuildDoneAt - r.Metrics.FailedAt).Seconds()
		}
		fmt.Fprintf(&b, "%-8s %10.2f %10d %12.1f %12d %10d\n",
			r.Label,
			float64(r.Metrics.MeanIOTime)/1e6,
			r.Metrics.DegradedReads,
			rebuild,
			r.Metrics.LostUnitsAtFailure,
			r.Metrics.DirtyAtEnd)
	}
	return b.String()
}
