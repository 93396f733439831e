package exp

import (
	"strings"
	"testing"
	"time"
)

// testConfig keeps unit-test runs fast; the recorded experiments use
// the 5-minute default via cmd/experiments.
func testConfig(workloads ...string) Config {
	return Config{Duration: 20 * time.Second, Seed: 77, Workloads: workloads}
}

func TestGridRunsAndIsComplete(t *testing.T) {
	g, err := Run(testConfig("hplajw", "att"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Results) != 2 {
		t.Fatalf("got %d workloads", len(g.Results))
	}
	for _, w := range g.Config.Workloads {
		for _, p := range g.Policies {
			r, ok := g.Results[w][p.Name]
			if !ok {
				t.Fatalf("missing cell %s/%s", w, p.Name)
			}
			if r.Metrics.Completed == 0 {
				t.Fatalf("cell %s/%s completed no requests", w, p.Name)
			}
			if r.Metrics.Submitted != r.Metrics.Completed {
				t.Fatalf("cell %s/%s lost requests", w, p.Name)
			}
		}
	}
}

func TestGridOrderingInvariants(t *testing.T) {
	g, err := Run(testConfig("cello-news", "as400-2"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range g.Config.Workloads {
		r5 := g.Results[w]["RAID5"].Metrics
		af := g.Results[w]["AFRAID"].Metrics
		r0 := g.Results[w]["RAID0"].Metrics
		// The paper's central performance result, per workload.
		if af.MeanIOTime >= r5.MeanIOTime {
			t.Errorf("%s: AFRAID %v not faster than RAID5 %v", w, af.MeanIOTime, r5.MeanIOTime)
		}
		if float64(af.MeanIOTime) > 1.5*float64(r0.MeanIOTime) {
			t.Errorf("%s: AFRAID %v far from RAID0 %v", w, af.MeanIOTime, r0.MeanIOTime)
		}
		// Availability ordering: RAID0 < AFRAID < RAID5.
		a0 := g.Results[w]["RAID0"].Avail.OverallMTTDL
		aa := g.Results[w]["AFRAID"].Avail.OverallMTTDL
		a5 := g.Results[w]["RAID5"].Avail.OverallMTTDL
		if !(a0 < aa && aa < a5) {
			t.Errorf("%s: MTTDL ordering violated: %g %g %g", w, a0, aa, a5)
		}
	}
}

func TestFigure3Monotonicity(t *testing.T) {
	g, err := Run(testConfig("cello-usr", "att", "as400-4"))
	if err != nil {
		t.Fatal(err)
	}
	pts := g.Figure3()
	if pts[0].Policy != "RAID5" || pts[len(pts)-1].Policy != "RAID0" {
		t.Fatalf("unexpected policy order: %v", pts)
	}
	// Availability must decline monotonically along the ladder (the
	// smooth tradeoff the paper's Figure 3 shows).
	for i := 1; i < len(pts); i++ {
		if pts[i].RelAvail > pts[i-1].RelAvail+1e-9 {
			t.Errorf("availability rose from %s (%.3f) to %s (%.3f)",
				pts[i-1].Policy, pts[i-1].RelAvail, pts[i].Policy, pts[i].RelAvail)
		}
	}
	// Pure AFRAID must be the fastest AFRAID point and RAID5 the slowest.
	if pts[len(pts)-2].Policy != "AFRAID" {
		t.Fatalf("expected AFRAID before RAID0, got %v", pts[len(pts)-2].Policy)
	}
	if pts[len(pts)-2].RelPerf <= pts[1].RelPerf {
		t.Errorf("pure AFRAID (%.2fx) not faster than tightest target (%.2fx)",
			pts[len(pts)-2].RelPerf, pts[1].RelPerf)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	g, err := Run(testConfig("hplajw"))
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{
		"table2": g.Table2(),
		"table3": g.Table3(),
		"table4": g.Table4(),
		"fig3":   g.Figure3Text(),
		"fig4":   g.Figure4Text(),
	} {
		if !strings.Contains(out, "hplajw") && name != "fig3" {
			t.Errorf("%s output missing workload row:\n%s", name, out)
		}
		if len(out) < 100 {
			t.Errorf("%s output suspiciously short", name)
		}
	}
}

func TestIdleDelaySweepMonotoneExposure(t *testing.T) {
	rows, err := IdleDelaySweep("cello-usr", 20*time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Longer idle thresholds must not reduce exposure.
	first := rows[0].Metrics.FracUnprotected
	last := rows[len(rows)-1].Metrics.FracUnprotected
	if last <= first {
		t.Errorf("1s threshold exposure %.3f not above 10ms exposure %.3f", last, first)
	}
}

func TestDirtyThresholdSweepBoundsLag(t *testing.T) {
	rows, err := DirtyThresholdSweep("att", 20*time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	unbounded := rows[0].Metrics.MaxParityLag
	tightest := rows[1].Metrics.MaxParityLag // th=5
	if tightest >= unbounded {
		t.Errorf("threshold 5 peak lag %.0f not below unbounded %.0f", tightest, unbounded)
	}
}

func TestWidthSweepRuns(t *testing.T) {
	rows, err := WidthSweep("cello-usr", 15*time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.SpeedupX <= 1 {
			t.Errorf("width %d: AFRAID speedup %.2fx not above 1", r.Disks, r.SpeedupX)
		}
	}
}

func TestCoalesceSweepRuns(t *testing.T) {
	co, err := CoalesceSweep("netware", 15*time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(co) != 2 {
		t.Fatalf("coalesce rows = %d", len(co))
	}
	if out := RenderAblation("x", co); !strings.Contains(out, "coalesce=on") {
		t.Error("render missing variant label")
	}
	if out := RenderWidth(nil); !strings.Contains(out, "disks") {
		t.Error("width render missing header")
	}
}
