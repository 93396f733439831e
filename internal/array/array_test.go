package array

import (
	"testing"
	"time"

	"afraid/internal/avail"
	"afraid/internal/sim"
	"afraid/internal/trace"
)

// smallWriteTrace builds n random-ish 8KB aligned writes with the given
// inter-arrival gap, followed by a sentinel read tail seconds later so
// the measurement window includes an idle period (the paper's day-long
// traces are idle-dominated; without a tail, a trace that ends at its
// last write makes the unprotected fraction read as ~1 by construction).
func smallWriteTrace(n int, gap, tail time.Duration, capacity int64) *trace.Trace {
	tr := &trace.Trace{Name: "synthetic-writes"}
	rng := sim.NewRNG(1234)
	for i := 0; i < n; i++ {
		off := rng.Int63n(capacity/8192-1) * 8192
		tr.Records = append(tr.Records, trace.Record{
			Time:   time.Duration(i) * gap,
			Write:  true,
			Offset: off,
			Length: 8192,
		})
	}
	if tail > 0 {
		tr.Records = append(tr.Records, trace.Record{
			Time:   time.Duration(n)*gap + tail,
			Offset: 0,
			Length: 8192,
		})
	}
	return tr
}

func mustRun(t *testing.T, cfg Config, tr *trace.Trace) Metrics {
	t.Helper()
	m, err := RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if m.Submitted != m.Completed {
		t.Fatalf("conservation violated: submitted %d completed %d", m.Submitted, m.Completed)
	}
	return m
}

func TestRequestConservationAllModes(t *testing.T) {
	// RAID 5 has the smallest client capacity; a trace within it is
	// valid for every mode.
	tr := smallWriteTrace(200, 25*time.Millisecond, 0, DefaultConfig(RAID5).Geometry.Capacity())
	for _, mode := range []Mode{RAID0, RAID5, AFRAID} {
		m := mustRun(t, DefaultConfig(mode), tr)
		if m.Completed != 200 {
			t.Fatalf("%v: completed %d, want 200", mode, m.Completed)
		}
	}
}

func TestAFRAIDWritesFasterThanRAID5(t *testing.T) {
	// Closely spaced small random writes: the RAID 5 small-update
	// penalty (4 I/Os in the critical path) must show up clearly
	// against AFRAID's single data write.
	tr := smallWriteTrace(500, 15*time.Millisecond, 0, DefaultConfig(RAID5).Geometry.Capacity())
	r5 := mustRun(t, DefaultConfig(RAID5), tr)
	af := mustRun(t, DefaultConfig(AFRAID), tr)
	if af.MeanIOTime*2 > r5.MeanIOTime {
		t.Fatalf("AFRAID %v not clearly faster than RAID5 %v", af.MeanIOTime, r5.MeanIOTime)
	}
}

func TestAFRAIDCloseToRAID0(t *testing.T) {
	tr := smallWriteTrace(500, 15*time.Millisecond, 0, DefaultConfig(RAID5).Geometry.Capacity())
	r0 := mustRun(t, DefaultConfig(RAID0), tr)
	af := mustRun(t, DefaultConfig(AFRAID), tr)
	// AFRAID pays only background rebuild interference; it must be
	// within ~40% of RAID 0 on a workload with inter-request gaps.
	if float64(af.MeanIOTime) > 1.4*float64(r0.MeanIOTime) {
		t.Fatalf("AFRAID %v too far from RAID0 %v", af.MeanIOTime, r0.MeanIOTime)
	}
	if af.MeanIOTime < r0.MeanIOTime/2 {
		t.Fatalf("AFRAID %v implausibly faster than RAID0 %v", af.MeanIOTime, r0.MeanIOTime)
	}
}

func TestRAID5NeverUnprotected(t *testing.T) {
	tr := smallWriteTrace(100, 30*time.Millisecond, 0, DefaultConfig(RAID5).Geometry.Capacity())
	m := mustRun(t, DefaultConfig(RAID5), tr)
	if m.FracUnprotected != 0 || m.MeanParityLag != 0 {
		t.Fatalf("RAID5 unprotected: frac=%g lag=%g", m.FracUnprotected, m.MeanParityLag)
	}
	if m.RebuiltStripes != 0 {
		t.Fatalf("RAID5 rebuilt %d stripes", m.RebuiltStripes)
	}
}

func TestAFRAIDRebuildsInIdlePeriods(t *testing.T) {
	// A burst of writes followed by silence: the idle task must rebuild
	// every stripe, leaving nothing dirty.
	cfg := DefaultConfig(AFRAID)
	tr := smallWriteTrace(50, 5*time.Millisecond, 5*time.Second, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.DirtyAtEnd != 0 {
		t.Fatalf("%d stripes still dirty after idle drain", m.DirtyAtEnd)
	}
	if m.RebuiltStripes == 0 {
		t.Fatal("no stripes rebuilt")
	}
	if m.FracUnprotected <= 0 || m.FracUnprotected >= 1 {
		t.Fatalf("frac unprotected = %g, want in (0,1)", m.FracUnprotected)
	}
	if m.MeanParityLag <= 0 {
		t.Fatal("mean parity lag should be positive for AFRAID under writes")
	}
}

func TestAFRAIDUnprotectedWindowShrinksWithIdleDelay(t *testing.T) {
	cfg := DefaultConfig(AFRAID)
	tr := smallWriteTrace(100, 20*time.Millisecond, 10*time.Second, cfg.Geometry.Capacity())

	fast := cfg
	fast.Policy.IdleDelay = 20 * time.Millisecond
	slow := cfg
	slow.Policy.IdleDelay = 2 * time.Second

	mf := mustRun(t, fast, tr)
	ms := mustRun(t, slow, tr)
	if mf.FracUnprotected >= ms.FracUnprotected {
		t.Fatalf("shorter idle delay should reduce exposure: fast=%g slow=%g",
			mf.FracUnprotected, ms.FracUnprotected)
	}
}

func TestDirtyThresholdBoundsExposure(t *testing.T) {
	// Saturating writes with no idle time: without the threshold the
	// dirty count grows without bound; with it, forced rebuilds keep
	// the count near the threshold.
	cfg := DefaultConfig(AFRAID)
	cfg.Policy.DirtyThreshold = 20
	tr := smallWriteTrace(300, 50*time.Millisecond, 2*time.Second, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.ForcedStripes == 0 {
		t.Fatal("threshold policy never forced a rebuild")
	}
	// Peak lag bounded: threshold+inflight stripes' worth of data.
	limit := float64((int64(cfg.Policy.DirtyThreshold) + 15) * cfg.Geometry.StripeDataBytes())
	if m.MaxParityLag > limit {
		t.Fatalf("max parity lag %g exceeds threshold bound %g", m.MaxParityLag, limit)
	}

	unbounded := DefaultConfig(AFRAID)
	mu := mustRun(t, unbounded, tr)
	if mu.MaxParityLag <= m.MaxParityLag {
		t.Fatalf("unbounded AFRAID peak lag %g not larger than thresholded %g",
			mu.MaxParityLag, m.MaxParityLag)
	}
}

func TestMTTDLTargetPolicyMeetsGoal(t *testing.T) {
	// The paper: "the disk-related MTTDL was never more than 5% below
	// its target, and usually far exceeded it."
	cfg := DefaultConfig(AFRAID)
	cfg.Policy.TargetMTTDL = 1.5e6
	cfg.Policy.DirtyThreshold = 20
	tr := smallWriteTrace(600, 8*time.Millisecond, 30*time.Second, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	achieved := avail.Default().AFRAIDDiskMTTDL(m.FracUnprotected)
	if achieved < 0.95*cfg.Policy.TargetMTTDL {
		t.Fatalf("achieved disk MTTDL %.3g more than 5%% below target %.3g (frac=%g)",
			achieved, cfg.Policy.TargetMTTDL, m.FracUnprotected)
	}
}

func TestMTTDLPolicyTradesPerformance(t *testing.T) {
	// Tighter targets must not be faster than pure AFRAID.
	tr := smallWriteTrace(400, 10*time.Millisecond, 10*time.Second, DefaultConfig(AFRAID).Geometry.Capacity())
	pure := mustRun(t, DefaultConfig(AFRAID), tr)

	strict := DefaultConfig(AFRAID)
	strict.Policy.TargetMTTDL = 3.0e6 // near the RAID 5 limit: mostly reverted
	strict.Policy.DirtyThreshold = 20
	ms := mustRun(t, strict, tr)

	if ms.MeanIOTime < pure.MeanIOTime {
		t.Fatalf("strict target %v faster than pure AFRAID %v", ms.MeanIOTime, pure.MeanIOTime)
	}
	if ms.FracUnprotected > pure.FracUnprotected {
		t.Fatalf("strict target more exposed (%g) than pure (%g)",
			ms.FracUnprotected, pure.FracUnprotected)
	}
	if ms.Reverts == 0 {
		t.Fatal("strict target never reverted to RAID 5")
	}
}

func TestWritesBlockedDuringRebuildComplete(t *testing.T) {
	// Hammer a single stripe so rebuilds and writes collide; every
	// request must still complete (no deadlock, no loss).
	cfg := DefaultConfig(AFRAID)
	cfg.Policy.IdleDelay = time.Millisecond // rebuild aggressively
	tr := &trace.Trace{Name: "one-stripe"}
	for i := 0; i < 200; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Time:   time.Duration(i) * 3 * time.Millisecond,
			Write:  true,
			Offset: 0,
			Length: 8192,
		})
	}
	m := mustRun(t, cfg, tr)
	if m.Completed != 200 {
		t.Fatalf("completed %d/200", m.Completed)
	}
	if m.DirtyAtEnd != 0 {
		t.Fatalf("%d dirty at end", m.DirtyAtEnd)
	}
}

func TestReadsServeFromDiskAndCache(t *testing.T) {
	cfg := DefaultConfig(AFRAID)
	tr := &trace.Trace{Name: "read-repeat"}
	// Two reads of the same block: second should be a cache hit and
	// much faster on average.
	tr.Records = []trace.Record{
		{Time: 0, Offset: 1 << 20, Length: 8192},
		{Time: 100 * time.Millisecond, Offset: 1 << 20, Length: 8192},
	}
	m := mustRun(t, cfg, tr)
	if m.ReadCacheHits == 0 {
		t.Fatal("second read did not hit the cache")
	}
	if m.Reads != 2 || m.Writes != 0 {
		t.Fatalf("reads=%d writes=%d", m.Reads, m.Writes)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := DefaultConfig(AFRAID)
	p, _ := trace.Lookup("cello-usr", 20*time.Second)
	tr, err := trace.Generate(p, cfg.Geometry.Capacity(), sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	m1 := mustRun(t, cfg, tr)
	m2 := mustRun(t, cfg, tr)
	if m1.MeanIOTime != m2.MeanIOTime || m1.FracUnprotected != m2.FracUnprotected ||
		m1.RebuiltStripes != m2.RebuiltStripes {
		t.Fatalf("non-deterministic: %+v vs %+v", m1, m2)
	}
}

func TestFullStripeWriteAvoidsPreReads(t *testing.T) {
	// A full-stripe RAID 5 write needs no pre-reads: its latency must
	// be well under a small write's read-modify-write latency plus two
	// rotations.
	cfg := DefaultConfig(RAID5)
	full := &trace.Trace{Records: []trace.Record{
		{Time: 0, Write: true, Offset: 0, Length: cfg.Geometry.StripeDataBytes()},
	}}
	mf := mustRun(t, cfg, full)

	small := &trace.Trace{Records: []trace.Record{
		{Time: 0, Write: true, Offset: 0, Length: 8192},
	}}
	ms := mustRun(t, cfg, small)

	// The small RMW write serializes read->write on two disks; the
	// full-stripe write is one positioning per disk. The full write
	// moves 4x the data yet should not take 2x the time.
	if mf.MeanIOTime > 2*ms.MeanIOTime {
		t.Fatalf("full-stripe %v vs small RMW %v: reconstruct path not engaged",
			mf.MeanIOTime, ms.MeanIOTime)
	}
}

func TestRAID0ModeRequiresRAID0Layout(t *testing.T) {
	cfg := DefaultConfig(RAID0)
	cfg.Geometry.Level = 1 // RAID5 layout
	if _, err := New(sim.NewEngine(), cfg); err == nil {
		t.Fatal("mismatched mode/layout accepted")
	}
	cfg2 := DefaultConfig(AFRAID)
	cfg2.Geometry.Level = 0 // RAID0 layout
	if _, err := New(sim.NewEngine(), cfg2); err == nil {
		t.Fatal("AFRAID with RAID0 layout accepted")
	}
}

func TestAdaptiveIdleDetectorRuns(t *testing.T) {
	cfg := DefaultConfig(AFRAID)
	cfg.Policy.AdaptiveIdle = true
	tr := smallWriteTrace(200, 12*time.Millisecond, time.Second, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.DirtyAtEnd != 0 {
		t.Fatalf("adaptive detector left %d dirty stripes", m.DirtyAtEnd)
	}
}

func TestCoalesceAdjacentReducesEpisodes(t *testing.T) {
	// Sequential writes dirty adjacent stripes; with coalescing the
	// rebuilder should finish runs in fewer episodes.
	base := DefaultConfig(AFRAID)
	tr := &trace.Trace{Name: "seq"}
	// Write across 40 consecutive stripes, then go idle; interleave a
	// trickle of reads so episodes get interrupted.
	stripeBytes := base.Geometry.StripeDataBytes()
	for i := 0; i < 40; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Time:   time.Duration(i) * 8 * time.Millisecond,
			Write:  true,
			Offset: int64(i) * stripeBytes,
			Length: 8192,
		})
	}
	for i := 0; i < 20; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Time:   400*time.Millisecond + time.Duration(i)*150*time.Millisecond,
			Offset: 4 << 20,
			Length: 8192,
		})
	}
	co := base
	co.Policy.CoalesceAdjacent = true
	mBase := mustRun(t, base, tr)
	mCo := mustRun(t, co, tr)
	if mBase.DirtyAtEnd != 0 || mCo.DirtyAtEnd != 0 {
		t.Fatalf("dirty at end: base=%d coalesce=%d", mBase.DirtyAtEnd, mCo.DirtyAtEnd)
	}
	if mCo.EpisodesCutShort > mBase.EpisodesCutShort {
		t.Fatalf("coalescing increased interruptions: %d > %d",
			mCo.EpisodesCutShort, mBase.EpisodesCutShort)
	}
}
