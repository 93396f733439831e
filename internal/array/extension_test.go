package array

import (
	"testing"
	"time"

	"afraid/internal/sim"
	"afraid/internal/trace"
)

// subUnitWriteTrace issues small writes (sub-stripe-unit) so the
// marking-granularity extension has something to exploit.
func subUnitWriteTrace(n int, size int64, gap, tail time.Duration, capacity int64) *trace.Trace {
	tr := &trace.Trace{Name: "sub-unit-writes"}
	rng := sim.NewRNG(4242)
	for i := 0; i < n; i++ {
		off := rng.Int63n(capacity/8192-1) * 8192 // unit-aligned starts
		tr.Records = append(tr.Records, trace.Record{
			Time:   time.Duration(i) * gap,
			Write:  true,
			Offset: off,
			Length: size,
		})
	}
	if tail > 0 {
		tr.Records = append(tr.Records, trace.Record{
			Time: time.Duration(n)*gap + tail, Offset: 0, Length: 8192,
		})
	}
	return tr
}

func TestMarkGranularityReducesExposedBytes(t *testing.T) {
	// 1 KB writes on 8 KB units: with M=8 only the touched slice is
	// unredundant, so the parity lag should shrink by close to 8x.
	base := DefaultConfig(AFRAID)
	tr := subUnitWriteTrace(200, 1<<10, 25*time.Millisecond, 3*time.Second, base.Geometry.Capacity())
	m1 := mustRun(t, base, tr)

	fine := DefaultConfig(AFRAID)
	fine.Policy.MarkGranularity = 8
	m8 := mustRun(t, fine, tr)

	if m8.DirtyAtEnd != 0 || m1.DirtyAtEnd != 0 {
		t.Fatalf("dirty at end: m1=%d m8=%d", m1.DirtyAtEnd, m8.DirtyAtEnd)
	}
	if m8.MaxParityLag*4 > m1.MaxParityLag {
		t.Fatalf("M=8 peak lag %.0f not well below M=1 peak lag %.0f",
			m8.MaxParityLag, m1.MaxParityLag)
	}
	if m8.MeanParityLag >= m1.MeanParityLag {
		t.Fatalf("M=8 mean lag %.0f not below M=1 %.0f", m8.MeanParityLag, m1.MeanParityLag)
	}
}

func TestMarkGranularityConservation(t *testing.T) {
	cfg := DefaultConfig(AFRAID)
	cfg.Policy.MarkGranularity = 4
	tr := subUnitWriteTrace(300, 2<<10, 10*time.Millisecond, time.Second, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.Completed != uint64(len(tr.Records)) {
		t.Fatalf("completed %d/%d", m.Completed, len(tr.Records))
	}
	if m.RebuiltStripes == 0 {
		t.Fatal("no slices rebuilt")
	}
}

func TestMarkGranularityValidation(t *testing.T) {
	cfg := DefaultConfig(RAID5)
	cfg.Policy.MarkGranularity = 4
	if _, err := New(sim.NewEngine(), cfg); err == nil {
		t.Fatal("granularity on RAID5 accepted")
	}
	cfg2 := DefaultConfig(AFRAID)
	cfg2.Policy.MarkGranularity = 3 // does not divide 8KB
	if _, err := New(sim.NewEngine(), cfg2); err == nil {
		t.Fatal("non-dividing granularity accepted")
	}
}

func TestConservativeStartSwitchesOnIdleWorkload(t *testing.T) {
	// A write burst, then plenty of idle: the array must begin in
	// RAID 5 mode and switch to AFRAID once it has observed the idle
	// headroom.
	cfg := DefaultConfig(AFRAID)
	cfg.Policy.ConservativeStart = true
	tr := &trace.Trace{}
	rng := sim.NewRNG(7)
	// Two seconds of bursty-but-mostly-idle traffic, then a probe burst.
	for i := 0; i < 40; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Time:   time.Duration(i) * 100 * time.Millisecond,
			Write:  true,
			Offset: rng.Int63n(cfg.Geometry.Capacity()/8192-1) * 8192,
			Length: 8192,
		})
	}
	m := mustRun(t, cfg, tr)
	if m.RevertedTime == 0 {
		t.Fatal("conservative start never spent time in RAID5 mode")
	}
	if m.RevertedTime >= m.EndTime {
		t.Fatal("conservative start never switched to AFRAID")
	}
	// Once switched, writes mark stripes: some rebuild activity exists.
	if m.RebuiltStripes == 0 {
		t.Fatal("no AFRAID behaviour after the switch")
	}
}

func TestConservativeStartStaysRAID5UnderSaturation(t *testing.T) {
	cfg := DefaultConfig(AFRAID)
	cfg.Policy.ConservativeStart = true
	// Back-to-back writes, never idle.
	tr := smallWriteTrace(400, 5*time.Millisecond, 0, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.RebuiltStripes != 0 && m.FracUnprotected > 0.01 {
		t.Fatalf("saturated conservative array behaved like AFRAID (frac=%g)", m.FracUnprotected)
	}
}

func TestPredictiveIdleDetectorRuns(t *testing.T) {
	cfg := DefaultConfig(AFRAID)
	cfg.Policy.PredictiveIdle = true
	tr := smallWriteTrace(200, 12*time.Millisecond, 2*time.Second, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.DirtyAtEnd != 0 {
		t.Fatalf("predictive detector left %d dirty stripes", m.DirtyAtEnd)
	}
	if m.Completed != uint64(201) {
		t.Fatalf("completed %d", m.Completed)
	}
}

func TestAdaptiveAndPredictiveExclusive(t *testing.T) {
	cfg := DefaultConfig(AFRAID)
	cfg.Policy.AdaptiveIdle = true
	cfg.Policy.PredictiveIdle = true
	if _, err := New(sim.NewEngine(), cfg); err == nil {
		t.Fatal("mutually exclusive detectors accepted")
	}
}

func TestImmediateReportingSpeedsUpWrites(t *testing.T) {
	// §4.1: the traced systems disabled immediate reporting; enabling
	// it lets writes complete at buffer speed. It must speed up both
	// RAID 5 and AFRAID while AFRAID stays ahead (the RMW pre-reads
	// are still mechanical).
	tr := smallWriteTrace(300, 25*time.Millisecond, 0, DefaultConfig(RAID5).Geometry.Capacity())

	run := func(mode Mode, ir bool) Metrics {
		cfg := DefaultConfig(mode)
		cfg.Disk.ImmediateReport = ir
		return mustRun(t, cfg, tr)
	}
	r5 := run(RAID5, false)
	r5ir := run(RAID5, true)
	af := run(AFRAID, false)
	afir := run(AFRAID, true)

	if r5ir.MeanIOTime >= r5.MeanIOTime {
		t.Errorf("immediate reporting did not speed up RAID5: %v vs %v", r5ir.MeanIOTime, r5.MeanIOTime)
	}
	if afir.MeanIOTime >= af.MeanIOTime {
		t.Errorf("immediate reporting did not speed up AFRAID: %v vs %v", afir.MeanIOTime, af.MeanIOTime)
	}
	if afir.MeanIOTime >= r5ir.MeanIOTime {
		t.Errorf("AFRAID %v not ahead of RAID5 %v under immediate reporting", afir.MeanIOTime, r5ir.MeanIOTime)
	}
}
