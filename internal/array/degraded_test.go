package array

import (
	"testing"
	"time"

	"afraid/internal/sim"
	"afraid/internal/trace"
)

// smallCfg shrinks the array (8 MB per disk) so spare-rebuild sweeps
// finish quickly in tests.
func smallCfg(mode Mode) Config {
	cfg := DefaultConfig(mode)
	cfg.Geometry.DiskSize = 8 << 20
	return cfg
}

func TestFaultDegradedReadsServed(t *testing.T) {
	cfg := smallCfg(RAID5)
	cfg.Fault = Fault{At: 500 * time.Millisecond, Disk: 2}
	tr := smallWriteTrace(100, 20*time.Millisecond, time.Second, cfg.Geometry.Capacity())
	// Append spread-out reads after the failure so reconstruction
	// happens on extents of the failed disk.
	rng := sim.NewRNG(777)
	for i := 0; i < 50; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Time:   3100*time.Millisecond + time.Duration(i)*20*time.Millisecond,
			Offset: rng.Int63n(cfg.Geometry.Capacity()/8192-1) * 8192,
			Length: 8192,
		})
	}
	m := mustRun(t, cfg, tr)
	if m.FailedAt != 500*time.Millisecond {
		t.Fatalf("failed at %v", m.FailedAt)
	}
	if m.DegradedReads == 0 {
		t.Fatal("no degraded reads recorded")
	}
	if m.DegradedRequests == 0 {
		t.Fatal("no requests counted as submitted while degraded")
	}
	if m.Completed != uint64(len(tr.Records)) {
		t.Fatalf("completed %d/%d", m.Completed, len(tr.Records))
	}
}

func TestFaultSpareRebuildCompletes(t *testing.T) {
	cfg := smallCfg(RAID5)
	cfg.Fault = Fault{At: 200 * time.Millisecond, Disk: 1, SpareRebuild: true}
	tr := smallWriteTrace(50, 30*time.Millisecond, 0, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.RebuildDoneAt == 0 {
		t.Fatal("spare rebuild never completed")
	}
	if m.RebuildDoneAt <= m.FailedAt {
		t.Fatalf("rebuild done %v before failure %v", m.RebuildDoneAt, m.FailedAt)
	}
	// 1024 stripes * (4 reads + 1 write) of 8KB on a mostly idle array
	// should take seconds of virtual time, not hours.
	if m.RebuildDoneAt-m.FailedAt > 5*time.Minute {
		t.Fatalf("rebuild took %v", m.RebuildDoneAt-m.FailedAt)
	}
}

func TestAFRAIDLosesDirtyUnitsOnFailure(t *testing.T) {
	// Fail mid-burst so stripes are dirty: the measured loss must be
	// positive for AFRAID and zero for RAID 5 — the paper's exposure,
	// realized.
	cfgA := smallCfg(AFRAID)
	cfgA.Policy.IdleDelay = time.Hour // keep stripes dirty until the failure
	cfgA.Fault = Fault{At: 1 * time.Second, Disk: 0}
	tr := smallWriteTrace(60, 15*time.Millisecond, 500*time.Millisecond, cfgA.Geometry.Capacity())
	mA := mustRun(t, cfgA, tr)
	if mA.LostUnitsAtFailure == 0 {
		t.Fatal("AFRAID with dirty stripes lost nothing on failure")
	}

	cfg5 := smallCfg(RAID5)
	cfg5.Fault = Fault{At: 1 * time.Second, Disk: 0}
	m5 := mustRun(t, cfg5, tr)
	if m5.LostUnitsAtFailure != 0 {
		t.Fatalf("RAID5 lost %d units on a single failure", m5.LostUnitsAtFailure)
	}

	// The §5 defer-Q preset also loses nothing: P is still fresh. With
	// both parities deferred, a dirty stripe is as exposed as AFRAID's.
	cfg6 := smallCfg(AFRAID6)
	tr6 := smallWriteTrace(60, 15*time.Millisecond, 500*time.Millisecond, cfg6.Geometry.Capacity())
	for _, mode := range []Mode{AFRAID6, AFRAID6PQ} {
		cfg6 := smallCfg(mode)
		cfg6.Policy.IdleDelay = time.Hour
		cfg6.Fault = Fault{At: 1 * time.Second, Disk: 0}
		m6 := mustRun(t, cfg6, tr6)
		if lost := m6.LostUnitsAtFailure; (lost == 0) != (mode == AFRAID6) {
			t.Fatalf("%v lost %d units on a single failure", mode, lost)
		}
	}
}

func TestDegradedWritesMaintainParity(t *testing.T) {
	// After a failure, AFRAID writes go through the synchronous
	// degraded path: no new stripes get marked.
	cfg := smallCfg(AFRAID)
	cfg.Fault = Fault{At: 100 * time.Millisecond, Disk: 3}
	tr := smallWriteTrace(100, 15*time.Millisecond, 0, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	// Stripes dirtied before the failure stay dirty (no rebuild while
	// degraded); the writes after it must not add more than the
	// pre-failure count.
	preFailureWrites := int64(100 * 15 / (15 * 10)) // ~writes before 100ms (gap 15ms)
	if m.DirtyAtEnd > preFailureWrites+5 {
		t.Fatalf("degraded writes kept marking stripes: %d dirty at end", m.DirtyAtEnd)
	}
	if m.Completed != uint64(len(tr.Records)) {
		t.Fatalf("completed %d/%d", m.Completed, len(tr.Records))
	}
}

func TestDegradedWriteKeepsEverySurvivingParity(t *testing.T) {
	// With a member down, every preset writes data and all surviving
	// parities, Q included: the missing unit stays encoded twice where
	// the layout allows.
	for _, mode := range []Mode{RAID5, AFRAID, RAID6, AFRAID6, AFRAID6PQ} {
		cfg := smallCfg(mode)
		cfg.Fault = Fault{At: time.Millisecond, Disk: 1}
		tr := smallWriteTrace(60, 20*time.Millisecond, 0, cfg.Geometry.Capacity())
		tr.Records = tr.Records[1:] // every write after the failure
		g := cfg.Geometry
		var want int64
		for _, rec := range tr.Records {
			sp := g.Split(rec.Offset, rec.Length)[0]
			for _, d := range []int{sp.Extents[0].Disk, g.ParityDisk(sp.Stripe), g.QDisk(sp.Stripe)} {
				if d >= 0 && d != cfg.Fault.Disk {
					want += rec.Length
				}
			}
		}
		m := mustRun(t, cfg, tr)
		var got int64
		for _, d := range m.Disks {
			got += d.BytesWritten
		}
		if got != want {
			t.Errorf("%v: degraded writes stored %d bytes, want %d", mode, got, want)
		}
	}
}

func TestRebuildRestoresAFRAIDBehaviour(t *testing.T) {
	// After the spare sweep finishes, deferred-parity rebuilds resume
	// and drain the stripes dirtied before the failure.
	cfg := smallCfg(AFRAID)
	cfg.Fault = Fault{At: 300 * time.Millisecond, Disk: 2, SpareRebuild: true}
	tr := smallWriteTrace(20, 10*time.Millisecond, 2*time.Minute, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.RebuildDoneAt == 0 {
		t.Fatal("sweep did not finish")
	}
	if m.DirtyAtEnd != 0 {
		t.Fatalf("%d stripes still dirty after sweep + idle tail", m.DirtyAtEnd)
	}
}

func TestNoFaultLeavesFieldsZero(t *testing.T) {
	cfg := smallCfg(AFRAID)
	tr := smallWriteTrace(20, 20*time.Millisecond, 0, cfg.Geometry.Capacity())
	m := mustRun(t, cfg, tr)
	if m.FailedAt != 0 || m.DegradedReads != 0 || m.DegradedRequests != 0 || m.LostUnitsAtFailure != 0 {
		t.Fatalf("fault fields non-zero without fault: %+v", m)
	}
}

func TestFullDiskRebuildMatchesPaperEstimate(t *testing.T) {
	// §3.1: rebuilding parity (or here, a whole member onto a spare)
	// for an array of 2GB disks "will take a little while (about ten
	// minutes ... at a sustained rate of 5MB/s)". With the streaming
	// sweep, an idle array must rebuild a full member in minutes of
	// virtual time, not hours.
	cfg := DefaultConfig(RAID5) // full 2GB geometry
	cfg.Fault = Fault{At: 50 * time.Millisecond, Disk: 0, SpareRebuild: true}
	tr := &trace.Trace{Records: []trace.Record{{Time: 0, Offset: 0, Length: 8192}}}
	m := mustRun(t, cfg, tr)
	if m.RebuildDoneAt == 0 {
		t.Fatal("rebuild did not finish")
	}
	d := m.RebuildDoneAt - m.FailedAt
	if d < 2*time.Minute || d > 30*time.Minute {
		t.Fatalf("full-member rebuild took %v, want minutes (paper: ~10)", d)
	}
	t.Logf("full 2GB member rebuild: %v", d.Round(time.Second))
}
