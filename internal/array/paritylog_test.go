package array

import (
	"testing"
	"time"

	"afraid/internal/trace"
)

func TestParityLogConservation(t *testing.T) {
	cfg := DefaultConfig(PARITYLOG)
	tr := smallWriteTrace(300, 15*time.Millisecond, 0, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.Completed != uint64(len(tr.Records)) {
		t.Fatalf("completed %d of %d", m.Completed, len(tr.Records))
	}
	if m.LogFlushes == 0 {
		t.Fatal("no log flushes recorded")
	}
}

func TestParityLogAlwaysRedundant(t *testing.T) {
	cfg := DefaultConfig(PARITYLOG)
	tr := smallWriteTrace(100, 20*time.Millisecond, time.Second, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.FracUnprotected != 0 || m.MeanParityLag != 0 {
		t.Fatalf("parity logging exposed data: frac=%g lag=%g", m.FracUnprotected, m.MeanParityLag)
	}
}

func TestParityLogBetweenRAID5AndAFRAID(t *testing.T) {
	// Parity logging removes the parity I/Os from the critical path but
	// keeps the old-data pre-read, so it should land between RAID 5 and
	// AFRAID on small random writes.
	cfg := DefaultConfig(PARITYLOG)
	tr := smallWriteTrace(500, 15*time.Millisecond, 0, cfg.Geometry.Capacity())
	mp := mustRun(t, cfg, tr)
	m5 := mustRun(t, DefaultConfig(RAID5), tr)
	ma := mustRun(t, DefaultConfig(AFRAID), tr)
	if mp.MeanIOTime >= m5.MeanIOTime {
		t.Fatalf("parity logging %v not faster than RAID5 %v", mp.MeanIOTime, m5.MeanIOTime)
	}
	if mp.MeanIOTime <= ma.MeanIOTime {
		t.Fatalf("parity logging %v faster than AFRAID %v (pre-read should cost something)",
			mp.MeanIOTime, ma.MeanIOTime)
	}
}

func TestParityLogFillStallsWrites(t *testing.T) {
	// A tiny log under sustained writes must fill and stall — the §2
	// failure mode AFRAID does not have.
	cfg := DefaultConfig(PARITYLOG)
	cfg.PLog.LogBytes = 64 << 10 // absurdly small: ~8 images
	cfg.PLog.bufferBytes = 16 << 10
	cfg.Geometry.DiskSize = (cfg.Disk.CapacityBytes() - cfg.PLog.LogBytes) / cfg.Geometry.StripeUnit * cfg.Geometry.StripeUnit
	tr := smallWriteTrace(300, 5*time.Millisecond, 0, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.Reintegrations == 0 {
		t.Fatal("log never reintegrated")
	}
	if m.LogStalls == 0 {
		t.Fatal("tiny log never stalled a write")
	}

	// The same workload on AFRAID neither stalls nor reintegrates.
	ma := mustRun(t, DefaultConfig(AFRAID), tr)
	if ma.MeanIOTime >= m.MeanIOTime {
		t.Fatalf("AFRAID %v not faster than log-pressured parity logging %v",
			ma.MeanIOTime, m.MeanIOTime)
	}
}

func TestParityLogReintegrationFreesLog(t *testing.T) {
	cfg := DefaultConfig(PARITYLOG)
	cfg.PLog.LogBytes = 256 << 10
	cfg.Geometry.DiskSize = (cfg.Disk.CapacityBytes() - cfg.PLog.LogBytes) / cfg.Geometry.StripeUnit * cfg.Geometry.StripeUnit
	// Enough writes to force several reintegration cycles, then quiet.
	tr := smallWriteTrace(600, 8*time.Millisecond, 2*time.Second, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.Reintegrations < 2 {
		t.Fatalf("only %d reintegrations; expected several cycles", m.Reintegrations)
	}
	if m.Completed != uint64(len(tr.Records)) {
		t.Fatalf("lost requests under log cycling: %d/%d", m.Completed, len(tr.Records))
	}
}

func TestParityLogReadsUnaffected(t *testing.T) {
	cfg := DefaultConfig(PARITYLOG)
	tr := &trace.Trace{}
	for i := 0; i < 50; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Time:   time.Duration(i) * 20 * time.Millisecond,
			Offset: int64(i) * 1 << 20,
			Length: 8192,
		})
	}
	m := mustRun(t, cfg, tr)
	if m.Reads != 50 {
		t.Fatalf("reads = %d", m.Reads)
	}
	if m.LogFlushes != 0 {
		t.Fatal("reads should not touch the parity log")
	}
}
