package afraid

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run `go test -bench . -benchmem`):
//
//	BenchmarkTable2    — Figure 2 / Table 2: mean I/O time per workload
//	                     under RAID 5, AFRAID, RAID 0 (reported as
//	                     meanIO-ms and speedup-x metrics).
//	BenchmarkTable3    — Table 3: pure-AFRAID availability per workload
//	                     (unprot-pct, lag-KB, overall MTTDL).
//	BenchmarkTable4    — Table 4: the MTTDL_x ladder (achieved/target).
//	BenchmarkFigure3   — Figure 3: the tradeoff curve's geometric means.
//	BenchmarkFigure4   — Figure 4: per-workload policy spread.
//	BenchmarkAblation* — DESIGN.md ablation sweeps.
//	Benchmark<micro>   — substrate microbenchmarks (XOR, GF(2^8) P+Q,
//	                     disk model, functional store data path).
//
// Simulation benchmarks use shorter traces than cmd/experiments (whose
// 5-minute runs are the recorded numbers in EXPERIMENTS.md); the shapes
// are the same.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"afraid/internal/disk"
	"afraid/internal/exp"
	"afraid/internal/tier"
)

const benchTraceDur = 30 * time.Second

// benchWorkloads is the evaluation set, ordered as in the paper.
var benchWorkloads = Workloads()

// runSim builds and replays one workload/mode pair.
func runSim(b *testing.B, mode SimMode, workload string, policy SimPolicy) SimMetrics {
	b.Helper()
	cfg := DefaultSimConfig(mode)
	cfg.Policy = policy
	m, err := SimulateWorkload(cfg, workload, benchTraceDur, 1996)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkTable2 regenerates the relative-performance comparison: for
// every workload, the mean I/O time under RAID 5, AFRAID, and RAID 0.
func BenchmarkTable2(b *testing.B) {
	for _, w := range benchWorkloads {
		for _, mode := range []SimMode{SimRAID5, SimAFRAID, SimRAID0} {
			b.Run(fmt.Sprintf("%s/%v", w, mode), func(b *testing.B) {
				var m SimMetrics
				for i := 0; i < b.N; i++ {
					m = runSim(b, mode, w, SimPolicy{})
				}
				b.ReportMetric(float64(m.MeanIOTime)/1e6, "meanIO-ms")
				if mode != SimRAID5 {
					r5 := runSim(b, SimRAID5, w, SimPolicy{})
					b.ReportMetric(float64(r5.MeanIOTime)/float64(m.MeanIOTime), "speedup-x")
				}
			})
		}
	}
}

// BenchmarkTable3 regenerates the pure-AFRAID availability measures.
func BenchmarkTable3(b *testing.B) {
	ap := DefaultAvailParams()
	for _, w := range benchWorkloads {
		b.Run(w, func(b *testing.B) {
			var m SimMetrics
			for i := 0; i < b.N; i++ {
				m = runSim(b, SimAFRAID, w, SimPolicy{})
			}
			rep := ap.AFRAIDReport(m.FracUnprotected, m.MeanParityLag)
			b.ReportMetric(100*m.FracUnprotected, "unprot-pct")
			b.ReportMetric(m.MeanParityLag/1e3, "lag-KB")
			b.ReportMetric(rep.OverallMTTDL/1e6, "overallMTTDL-Mh")
			b.ReportMetric(rep.DiskMDLR, "MDLR-B/h")
		})
	}
}

// BenchmarkTable4 regenerates the MTTDL_x policy ladder on the busiest
// and one bursty workload (the full grid is cmd/experiments -exp table4).
func BenchmarkTable4(b *testing.B) {
	ap := DefaultAvailParams()
	for _, w := range []string{"att", "cello-usr"} {
		for _, target := range []float64{10e6, 2.5e6, 1e6} {
			b.Run(fmt.Sprintf("%s/target=%.2gMh", w, target/1e6), func(b *testing.B) {
				var m SimMetrics
				for i := 0; i < b.N; i++ {
					m = runSim(b, SimAFRAID, w, SimPolicy{TargetMTTDL: target, DirtyThreshold: 20})
				}
				achieved := ap.AFRAIDDiskMTTDL(m.FracUnprotected)
				b.ReportMetric(achieved/target, "achieved/target")
				b.ReportMetric(float64(m.MeanIOTime)/1e6, "meanIO-ms")
			})
		}
	}
}

// BenchmarkFigure3 regenerates the performance/availability tradeoff
// curve: one sub-benchmark per policy point, metrics relative to RAID 5.
func BenchmarkFigure3(b *testing.B) {
	var grid *exp.Grid
	build := func(b *testing.B) *exp.Grid {
		g, err := exp.Run(exp.Config{Duration: benchTraceDur, Seed: 1996})
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			grid = build(b)
		}
		for _, p := range grid.Figure3() {
			b.ReportMetric(p.RelPerf, "relPerf-"+p.Policy)
		}
	})
	if grid == nil {
		grid = build(b)
	}
	for _, p := range grid.Figure3() {
		b.Run(p.Policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = p
			}
			b.ReportMetric(p.RelPerf, "relPerf-x")
			b.ReportMetric(100*p.RelAvail, "relAvail-pct")
			b.ReportMetric(p.MeanIOTimeMs, "meanIO-ms")
		})
	}
}

// BenchmarkFigure4 regenerates the per-workload policy curves,
// reporting each workload's spread across the AFRAID policy ladder
// (bursty traces are flat, busy traces decline smoothly).
func BenchmarkFigure4(b *testing.B) {
	for _, w := range benchWorkloads {
		b.Run(w, func(b *testing.B) {
			var pure, strict SimMetrics
			for i := 0; i < b.N; i++ {
				pure = runSim(b, SimAFRAID, w, SimPolicy{})
				strict = runSim(b, SimAFRAID, w, SimPolicy{TargetMTTDL: 10e6, DirtyThreshold: 20})
			}
			b.ReportMetric(float64(pure.MeanIOTime)/1e6, "pure-ms")
			b.ReportMetric(float64(strict.MeanIOTime)/1e6, "strict-ms")
			b.ReportMetric(float64(strict.MeanIOTime)/float64(pure.MeanIOTime), "spread-x")
		})
	}
}

// BenchmarkAblationIdleDelay sweeps the idle-detection threshold
// (DESIGN.md ablation #1).
func BenchmarkAblationIdleDelay(b *testing.B) {
	for _, d := range []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
		b.Run(d.String(), func(b *testing.B) {
			var m SimMetrics
			for i := 0; i < b.N; i++ {
				m = runSim(b, SimAFRAID, "cello-usr", SimPolicy{IdleDelay: d})
			}
			b.ReportMetric(100*m.FracUnprotected, "unprot-pct")
			b.ReportMetric(float64(m.MeanIOTime)/1e6, "meanIO-ms")
		})
	}
}

// BenchmarkAblationDirtyThreshold sweeps the stripe-count bound
// (DESIGN.md ablation #2).
func BenchmarkAblationDirtyThreshold(b *testing.B) {
	for _, th := range []int{0, 5, 20, 100} {
		b.Run(fmt.Sprintf("th=%d", th), func(b *testing.B) {
			var m SimMetrics
			for i := 0; i < b.N; i++ {
				m = runSim(b, SimAFRAID, "att", SimPolicy{DirtyThreshold: th})
			}
			b.ReportMetric(m.MaxParityLag/1e3, "maxlag-KB")
			b.ReportMetric(float64(m.MeanIOTime)/1e6, "meanIO-ms")
		})
	}
}

// BenchmarkAblationCoalesce compares adjacent-stripe rebuild coalescing
// (DESIGN.md ablation #3).
func BenchmarkAblationCoalesce(b *testing.B) {
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("coalesce=%v", on), func(b *testing.B) {
			var m SimMetrics
			for i := 0; i < b.N; i++ {
				m = runSim(b, SimAFRAID, "netware", SimPolicy{CoalesceAdjacent: on})
			}
			b.ReportMetric(float64(m.EpisodesCutShort), "cutShort")
			b.ReportMetric(100*m.FracUnprotected, "unprot-pct")
		})
	}
}

// BenchmarkAblationWidth sweeps stripe width (DESIGN.md ablation #4:
// AFRAID's rebuild cost is linear in width).
func BenchmarkAblationWidth(b *testing.B) {
	var rows []exp.WidthResult
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			rows, err = exp.WidthSweep("cello-usr", benchTraceDur, 1996)
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range rows {
			b.ReportMetric(r.SpeedupX, fmt.Sprintf("speedup-%dd", r.Disks))
		}
	})
}

// BenchmarkAblationRelatedWork compares AFRAID against the §2 parity-
// logging baseline, including the log-pressure failure mode.
func BenchmarkAblationRelatedWork(b *testing.B) {
	var rows []exp.RelatedWorkRow
	b.Run("att", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			rows, err = exp.RelatedWorkSweep("att", benchTraceDur, 1996)
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Metrics.MeanIOTime)/1e6, "ms-"+r.Label)
		}
	})
}

// BenchmarkAblationRAID6 runs the §5 double-parity extension sweep.
func BenchmarkAblationRAID6(b *testing.B) {
	var rows []exp.RAID6Row
	b.Run("att", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			rows, err = exp.RAID6Sweep("att", benchTraceDur, 1996)
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Metrics.MeanIOTime)/1e6, "ms-"+r.Label)
		}
	})
}

// BenchmarkAblationGranularity sweeps the §5 sub-stripe marking factor.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, m := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			var res SimMetrics
			for i := 0; i < b.N; i++ {
				res = runSim(b, SimAFRAID, "cello-news", SimPolicy{MarkGranularity: m})
			}
			b.ReportMetric(res.MeanParityLag/1e3, "lag-KB")
			b.ReportMetric(float64(res.MeanIOTime)/1e6, "meanIO-ms")
		})
	}
}

// --- substrate microbenchmarks ---

// BenchmarkDiskServiceTime measures the mechanical disk model.
func BenchmarkDiskServiceTime(b *testing.B) {
	d := disk.New(disk.C3325(), 0)
	now := time.Duration(0)
	rng := uint64(99)
	capBytes := disk.C3325().CapacityBytes()
	for i := 0; i < b.N; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		off := int64(rng%uint64(capBytes-65536)) / 512 * 512
		now += d.ServiceTime(now, disk.Op{Offset: off, Length: 8 << 10})
	}
}

// BenchmarkStoreWrite measures the functional store's write path in
// AFRAID vs RAID 5 mode (the real-code analogue of the small-update
// penalty: RAID 5 does 2 reads + 2 writes per small write).
func BenchmarkStoreWrite(b *testing.B) {
	for _, mode := range []StoreMode{StoreAFRAID, StoreRAID5, StoreRAID0, StoreRAID6, StoreAFRAID6} {
		b.Run(mode.String(), func(b *testing.B) {
			devs := make([]BlockDevice, 5)
			for i := range devs {
				devs[i] = NewMemDevice(16 << 20)
			}
			s, err := OpenStore(devs, nil, StoreOptions{Mode: mode, DisableScrubber: true})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			buf := make([]byte, 8<<10)
			stripes := s.Geometry().Stripes()
			b.SetBytes(8 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (int64(i) % stripes) * s.Geometry().StripeDataBytes()
				if _, err := s.WriteAt(buf, off); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreScrub measures parity rebuild throughput. ReportAllocs
// guards the pooled-arena property: a steady-state single-stripe
// parity point reads into a recycled stripe buffer and runs inline on
// the caller's goroutine, so allocs/op must stay at zero once the pool
// is warm.
func BenchmarkStoreScrub(b *testing.B) {
	devs := make([]BlockDevice, 5)
	for i := range devs {
		devs[i] = NewMemDevice(32 << 20)
	}
	s, err := OpenStore(devs, nil, StoreOptions{Mode: StoreAFRAID, DisableScrubber: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 8<<10)
	stripes := s.Geometry().Stripes()
	b.SetBytes(s.Geometry().StripeDataBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		off := (int64(i) % stripes) * s.Geometry().StripeDataBytes()
		if _, err := s.WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.ParityPoint(off, s.Geometry().StripeDataBytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChecksumVerify measures what the end-to-end block checksums
// cost on the hot paths: one CRC32C verify per unit read, one CRC32C +
// 8-byte slot write per unit written. RAID 0 isolates the checksum
// layer from parity work; the checksums=off runs are the baseline.
func BenchmarkChecksumVerify(b *testing.B) {
	for _, checksums := range []bool{false, true} {
		devs := make([]BlockDevice, 5)
		for i := range devs {
			devs[i] = NewMemDevice(16 << 20)
		}
		s, err := OpenStore(devs, nil, StoreOptions{
			Mode: StoreRAID0, DisableScrubber: true, Checksums: checksums,
		})
		if err != nil {
			b.Fatal(err)
		}
		span := s.Geometry().StripeDataBytes()
		stripes := s.Geometry().Stripes()
		buf := make([]byte, span)
		name := "off"
		if checksums {
			name = "on"
		}
		b.Run("write/checksums="+name, func(b *testing.B) {
			b.SetBytes(span)
			for i := 0; i < b.N; i++ {
				if _, err := s.WriteAt(buf, (int64(i)%stripes)*span); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("read/checksums="+name, func(b *testing.B) {
			b.SetBytes(span)
			for i := 0; i < b.N; i++ {
				if _, err := s.ReadAt(buf, (int64(i)%stripes)*span); err != nil {
					b.Fatal(err)
				}
			}
		})
		s.Close()
	}
}

// latencyDev adds a fixed service time to every I/O, standing in for a
// real disk so the flush benchmark measures I/O overlap rather than
// memcpy speed. Without it, memory-backed rebuilds are bandwidth-bound
// and worker scaling is invisible.
type latencyDev struct {
	BlockDevice
	lat time.Duration
}

func (d *latencyDev) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(d.lat)
	return d.BlockDevice.ReadAt(p, off)
}

func (d *latencyDev) WriteAt(p []byte, off int64) (int, error) {
	time.Sleep(d.lat)
	return d.BlockDevice.WriteAt(p, off)
}

// BenchmarkFlushThroughput measures whole-backlog drain rate in
// stripes/s as the scrub worker pool widens. Every stripe is dirtied,
// then one Flush drains the array; with N workers, N stripes' reads
// and parity writes are in flight at once against ~50µs devices.
func BenchmarkFlushThroughput(b *testing.B) {
	const (
		lat  = 50 * time.Microsecond
		unit = 8 << 10
		size = 4 << 20 // 512 stripes per flush on 5 disks
	)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			devs := make([]BlockDevice, 5)
			for i := range devs {
				devs[i] = &latencyDev{NewMemDevice(size), lat}
			}
			s, err := OpenStore(devs, nil, StoreOptions{Mode: StoreAFRAID,
				StripeUnit: unit, DisableScrubber: true, ScrubWorkers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			span := s.Geometry().StripeDataBytes()
			stripes := s.Geometry().Stripes()
			buf := make([]byte, span)
			var drained int64
			var inFlush time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for st := int64(0); st < stripes; st++ {
					if _, err := s.WriteAt(buf, st*span); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				start := time.Now()
				if err := s.Flush(); err != nil {
					b.Fatal(err)
				}
				inFlush += time.Since(start)
				drained += stripes
			}
			b.ReportMetric(float64(drained)/inFlush.Seconds(), "stripes/s")
		})
	}
}

// BenchmarkTierSmallWrites measures the hybrid tier's reason to exist:
// 4 KB random writes over a hot working set against ~50µs member
// disks, hybrid (internal/tier: mirrored front over an AFRAID back)
// vs bare AFRAID vs RAID 5. The front devices model faster media (no
// added latency), so once the working set is promoted a small write
// costs two mirror copies instead of a member-disk I/O; the hybrid
// leg must beat bare AFRAID for the tier to pay its way, and RAID 5
// shows the full small-update penalty both are avoiding.
func BenchmarkTierSmallWrites(b *testing.B) {
	const (
		lat        = 50 * time.Microsecond
		ioSize     = 4 << 10
		extentSize = 64 << 10
		workingSet = int64(16 * extentSize) // hot region, fits the front
		backSize   = 16 << 20
	)
	newBack := func(mode StoreMode) *Store {
		devs := make([]BlockDevice, 5)
		for i := range devs {
			devs[i] = &latencyDev{NewMemDevice(backSize), lat}
		}
		s, err := OpenStore(devs, nil, StoreOptions{Mode: mode, DisableScrubber: true})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	run := func(b *testing.B, w io.WriterAt) {
		buf := make([]byte, ioSize)
		rng := uint64(1996)
		b.SetBytes(ioSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			off := int64(rng%uint64(workingSet/ioSize)) * ioSize
			if _, err := w.WriteAt(buf, off); err != nil {
				b.Fatal(err)
			}
		}
	}

	for _, mode := range []StoreMode{StoreRAID5, StoreAFRAID} {
		b.Run(mode.String(), func(b *testing.B) {
			s := newBack(mode)
			defer s.Close()
			run(b, s)
		})
	}
	b.Run("hybrid", func(b *testing.B) {
		back := newBack(StoreAFRAID)
		defer back.Close()
		// Two mirror copies with room for the working set plus slack;
		// each slot carries a 16-byte tag trailer.
		frontSize := int64(24 * (extentSize + 16))
		front := []BlockDevice{NewMemDevice(frontSize), NewMemDevice(frontSize)}
		h, err := tier.Open(back, front, &MemNVRAM{}, tier.Options{
			ExtentSize:      extentSize,
			MaxDirtyBytes:   1 << 30, // never trip the pressure valve
			DisableMigrator: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		// Promote the working set so the timed loop measures steady-state
		// front hits, not one-time promotions.
		warm := make([]byte, ioSize)
		for off := int64(0); off < workingSet; off += extentSize {
			if _, err := h.WriteAt(warm, off); err != nil {
				b.Fatal(err)
			}
		}
		run(b, h)
		ts := h.TierStats()
		total := ts.FrontWriteHits + ts.WriteArounds
		if total > 0 {
			b.ReportMetric(float64(ts.FrontWriteHits)/float64(total), "front-hit-frac")
		}
	})
}

// BenchmarkDegradedMode runs the failure-injection study: a mid-trace
// disk failure with hot-spare rebuild, RAID 5 vs AFRAID.
func BenchmarkDegradedMode(b *testing.B) {
	var rows []exp.DegradedRow
	b.Run("cello-usr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			rows, err = exp.DegradedSweep("cello-usr", benchTraceDur, 1996)
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Metrics.MeanIOTime)/1e6, "ms-"+r.Label)
			b.ReportMetric(float64(r.Metrics.LostUnitsAtFailure), "lost-"+r.Label)
		}
	})
}
