package avail

import (
	"math"
	"testing"
	"testing/quick"
)

// within reports whether got is within frac relative error of want.
func within(got, want, frac float64) bool {
	return math.Abs(got-want) <= frac*math.Abs(want)
}

func TestPaperSection31RAID5MTTDL(t *testing.T) {
	// "With a 5-disk array, and the parameters of Table 1, this gives a
	// theoretical MTTDL of ~4·10^9 hours, or about 475,000 years."
	p := Default()
	got := p.RAID5CatastrophicMTTDL()
	if !within(got, 4.1667e9, 0.01) {
		t.Fatalf("RAID5 MTTDL = %.4g h, want ~4.17e9", got)
	}
	years := got / HoursPerYear
	if !within(years, 475000, 0.01) {
		t.Fatalf("RAID5 MTTDL = %.0f years, want ~475,000", years)
	}
}

func TestCoverageDoublesDiskMTTF(t *testing.T) {
	p := Default()
	if p.DiskMTTF() != 2e6 {
		t.Fatalf("effective disk MTTF = %g, want 2e6 (1M raw / (1-0.5))", p.DiskMTTF())
	}
}

func TestPaperSection32RAID5MDLR(t *testing.T) {
	// "The RAID 5 array we considered earlier would have a MDLR of
	// ~0.8 bytes/hour from this failure mode."
	p := Default()
	got := p.RAID5CatastrophicMDLR()
	if !within(got, 0.8, 0.05) {
		t.Fatalf("RAID5 MDLR = %g B/h, want ~0.8", got)
	}
}

func TestPaperSection33SupportMDLR(t *testing.T) {
	// "With a 2M hour MTTDL, our 5-disk array would suffer a MDLR of
	// 4.0KB/hour; using the 150k hour figure would increase this to
	// 53KB/hour."
	p := Default()
	if got := p.SupportMDLR(); !within(got, 4000, 0.01) {
		t.Fatalf("support MDLR = %g B/h, want 4.0 KB/h", got)
	}
	p.SupportMTTDL = 150e3
	if got := p.SupportMDLR(); !within(got, 53333, 0.01) {
		t.Fatalf("support MDLR = %g B/h, want ~53 KB/h", got)
	}
}

func TestPaperSection35PowerFailure(t *testing.T) {
	// "a 10% write duty cycle on a 5-disk RAID 5 gives a MTTDL of only
	// 43k hours due to external power failures" and a high-grade UPS
	// "returns the MTTDL for the array's external power components to
	// 2M hours".
	pw := DefaultPower()
	if got := pw.MTTDL(); !within(got, 43000, 0.01) {
		t.Fatalf("power MTTDL = %g h, want 43k", got)
	}
	// "The effect on MDLR is roughly to double it (0.7 bytes/hour)".
	if got := pw.MDLR(); !within(got, 0.7, 0.05) {
		t.Fatalf("power MDLR = %g B/h, want ~0.7", got)
	}
	pw.UPSMTTF = 200e3
	if got := pw.MTTDL(); !within(got, 2e6, 0.01) {
		t.Fatalf("UPS power MTTDL = %g h, want 2M", got)
	}
}

func TestPaperSection34NVRAM(t *testing.T) {
	// "the popular PrestoServe card has a predicted MTTF of 15k hours;
	// with 1MB of vulnerable data, this corresponds to an MDLR of 67
	// bytes/hour."
	got := NVRAMMDLR(1e6, 15e3)
	if !within(got, 66.7, 0.01) {
		t.Fatalf("PrestoServe MDLR = %g B/h, want ~67", got)
	}
}

func TestPaperSection36SingleDiskMDLR(t *testing.T) {
	// "If it held 2GB, its mean data loss rate would be 2-4KB/hour"
	// for a disk with MTTF 0.5-1M hours.
	lo := 2e9 / 1e6
	hi := 2e9 / 0.5e6
	if lo != 2000 || hi != 4000 {
		t.Fatalf("single-disk MDLR range = %g-%g, want 2000-4000", lo, hi)
	}
}

func TestAFRAIDUnprotectedMTTDLBehaviour(t *testing.T) {
	p := Default()
	// Never unprotected: infinite exposure-free MTTDL.
	if !math.IsInf(p.AFRAIDUnprotectedMTTDL(0), 1) {
		t.Fatal("zero unprotected fraction should give +Inf")
	}
	// Always unprotected: reduces to RAID 0's disk MTTDL.
	if got, want := p.AFRAIDUnprotectedMTTDL(1), p.RAID0DiskMTTDL(); !within(got, want, 1e-9) {
		t.Fatalf("always-unprotected MTTDL = %g, want RAID0 %g", got, want)
	}
	// Example: unprotected 1% of the time => 100x RAID 0.
	if got, want := p.AFRAIDUnprotectedMTTDL(0.01), 100*p.RAID0DiskMTTDL(); !within(got, want, 1e-9) {
		t.Fatalf("1%%-unprotected MTTDL = %g, want %g", got, want)
	}
}

func TestAFRAIDCombinedBetweenRAID0AndRAID5(t *testing.T) {
	p := Default()
	prop := func(raw float64) bool {
		f := math.Abs(raw)
		f -= math.Floor(f) // [0,1)
		got := p.AFRAIDDiskMTTDL(f)
		return got <= p.RAID5CatastrophicMTTDL()+1 && got >= p.RAID0DiskMTTDL()-1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAFRAIDMTTDLMonotoneInExposure(t *testing.T) {
	p := Default()
	prev := math.Inf(1)
	for f := 0.0; f <= 1.0; f += 0.05 {
		got := p.AFRAIDDiskMTTDL(f)
		if got > prev {
			t.Fatalf("MTTDL increased with exposure at f=%g", f)
		}
		prev = got
	}
}

func TestMDLRUnprotectedEquation4(t *testing.T) {
	p := Default()
	// lag of 1 MB: (1e6/4) * 5/2e6 = 0.625 B/h.
	got := p.MDLRUnprotected(1e6)
	if !within(got, 0.625, 1e-9) {
		t.Fatalf("MDLRunprot(1MB) = %g, want 0.625", got)
	}
	if p.MDLRUnprotected(0) != 0 {
		t.Fatal("zero lag should give zero MDLR")
	}
}

func TestCombineHarmonic(t *testing.T) {
	if got := Combine(2e6, 2e6); !within(got, 1e6, 1e-9) {
		t.Fatalf("Combine(2M,2M) = %g, want 1M", got)
	}
	if got := Combine(math.Inf(1), 5e5); !within(got, 5e5, 1e-9) {
		t.Fatalf("Combine(Inf,500k) = %g, want 500k", got)
	}
	if !math.IsInf(Combine(), 1) {
		t.Fatal("Combine() should be +Inf")
	}
}

func TestCombineNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive MTTDL did not panic")
		}
	}()
	Combine(0)
}

func TestOverallDominatedBySupport(t *testing.T) {
	// §3.3's lesson: support components determine availability. RAID 5
	// overall MTTDL must be within a hair of the 2M-hour support limit.
	p := Default()
	got := p.RAID5Report().OverallMTTDL
	if got > p.SupportMTTDL {
		t.Fatalf("overall MTTDL %g exceeds support limit %g", got, p.SupportMTTDL)
	}
	if got < 0.999*p.SupportMTTDL {
		t.Fatalf("overall MTTDL %g not support-dominated (support %g)", got, p.SupportMTTDL)
	}
}

func TestReportsRelativeOrdering(t *testing.T) {
	p := Default()
	r5 := p.RAID5Report()
	r0 := p.RAID0Report()
	// A moderately-exposed AFRAID.
	af := p.AFRAIDReport(0.2, 2e6)
	if !(r0.OverallMTTDL < af.OverallMTTDL && af.OverallMTTDL < r5.OverallMTTDL) {
		t.Fatalf("MTTDL ordering violated: raid0=%g afraid=%g raid5=%g",
			r0.OverallMTTDL, af.OverallMTTDL, r5.OverallMTTDL)
	}
	if !(r5.DiskMDLR <= af.DiskMDLR && af.DiskMDLR < r0.DiskMDLR) {
		t.Fatalf("MDLR ordering violated: raid5=%g afraid=%g raid0=%g",
			r5.DiskMDLR, af.DiskMDLR, r0.DiskMDLR)
	}
}

func TestTable3ShapeMDLRTiny(t *testing.T) {
	// "with the exception of the heavy load from the ATT trace,
	// MDLRunprotected contributes less than one byte per hour" — a lag
	// below ~1.6 MB keeps equation (4) under 1 B/h for these params.
	p := Default()
	if got := p.MDLRUnprotected(1.5e6); got >= 1 {
		t.Fatalf("MDLRunprot(1.5MB) = %g, want < 1 B/h", got)
	}
	if got := p.MDLRUnprotected(5e6); got <= 1 {
		t.Fatalf("MDLRunprot(5MB) = %g, want > 1 B/h (ATT-like)", got)
	}
}
