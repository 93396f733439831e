package avail

import (
	"math"
	"testing"
)

func TestRAID6MTTDLAstronomical(t *testing.T) {
	p := Default() // 5 disks: N=3 data + P + Q
	got := p.RAID6CatastrophicMTTDL()
	// (2e6)^3 / (3*4*5*48^2) ≈ 5.8e13 hours.
	want := math.Pow(2e6, 3) / (3 * 4 * 5 * 48 * 48)
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("RAID6 MTTDL = %g, want %g", got, want)
	}
	if got <= p.RAID5CatastrophicMTTDL() {
		t.Fatal("RAID6 not safer than RAID5")
	}
}

func TestAFRAID6DeferQSaferThanDeferBoth(t *testing.T) {
	p := Default()
	for _, frac := range []float64{0.05, 0.3, 0.9} {
		prev := 0.0
		for sync := 0; sync <= 1; sync++ {
			got := p.AFRAID6DiskMTTDL(frac, sync)
			if got <= prev {
				t.Fatalf("frac=%g: sync=%d MTTDL %g not above sync=%d's %g", frac, sync, got, sync-1, prev)
			}
			prev = got
		}
	}
}

func TestAFRAID6Boundaries(t *testing.T) {
	p := Default()
	if got := p.AFRAID6DiskMTTDL(0, 1); got != p.RAID6CatastrophicMTTDL() {
		t.Fatalf("zero exposure should give pure RAID6 MTTDL, got %g", got)
	}
	// Fully exposed defer-both: reduces to the any-single-disk rate.
	if got, want := p.AFRAID6DiskMTTDL(1, 0), p.DiskMTTF()/float64(p.Disks); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("fully exposed defer-both = %g, want %g", got, want)
	}
	// Fully exposed defer-q: reduces to the double-failure MTTDL, which
	// still beats plain RAID 5's (same formula, same disks).
	got := p.AFRAID6DiskMTTDL(1, 1)
	if math.Abs(got-p.doubleFailureMTTDL()) > 1e-6*got {
		t.Fatalf("fully exposed defer-q = %g, want %g", got, p.doubleFailureMTTDL())
	}
}

func TestAFRAID6MonotoneInExposure(t *testing.T) {
	p := Default()
	for sync := 0; sync <= 1; sync++ {
		prev := math.Inf(1)
		for f := 0.0; f <= 1.0; f += 0.1 {
			got := p.AFRAID6DiskMTTDL(f, sync)
			if got > prev {
				t.Fatalf("sync=%d: MTTDL rose with exposure at f=%g", sync, f)
			}
			prev = got
		}
	}
}

func TestMDLR6DeferQTiny(t *testing.T) {
	p := Default()
	// With Q deferred, loss needs a double failure: the MDLR from a
	// given lag must be orders of magnitude below the defer-both case.
	lag := 5e6
	dq := p.MDLR6Unprotected(lag, 1)
	db := p.MDLR6Unprotected(lag, 0)
	if dq*1000 > db {
		t.Fatalf("defer-q MDLR %g not well below defer-both %g", dq, db)
	}
	if p.MDLR6Unprotected(0, 1) != 0 || p.MDLR6Unprotected(0, 0) != 0 {
		t.Fatal("zero lag should give zero MDLR")
	}
}

func TestAFRAID6ReportOrdering(t *testing.T) {
	p := Default()
	dq := p.AFRAID6Report(0.3, 2e6, 1)
	db := p.AFRAID6Report(0.3, 2e6, 0)
	if dq.OverallMTTDL <= db.OverallMTTDL {
		t.Fatalf("defer-q overall %g not above defer-both %g", dq.OverallMTTDL, db.OverallMTTDL)
	}
	if dq.DiskMDLR >= db.DiskMDLR {
		t.Fatalf("defer-q MDLR %g not below defer-both %g", dq.DiskMDLR, db.DiskMDLR)
	}
	// Both still support-limited overall.
	if dq.OverallMTTDL > p.SupportMTTDL {
		t.Fatal("overall MTTDL exceeds support limit")
	}
}
