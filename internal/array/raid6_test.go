package array

import (
	"testing"
	"time"
)

func TestRAID6Conservation(t *testing.T) {
	for _, mode := range []Mode{RAID6, AFRAID6} {
		cfg := DefaultConfig(mode)
		tr := smallWriteTrace(200, 20*time.Millisecond, 0, cfg.Geometry.Capacity())
		m := mustRun(t, cfg, tr)
		if m.Completed != uint64(len(tr.Records)) {
			t.Fatalf("%v: completed %d/%d", mode, m.Completed, len(tr.Records))
		}
	}
}

func TestRAID6SlowerThanRAID5(t *testing.T) {
	// §5: RAID 6 "pays an even higher penalty for doing small updates
	// than does RAID 5" — six I/Os vs four.
	cfg6 := DefaultConfig(RAID6)
	tr := smallWriteTrace(400, 15*time.Millisecond, 0, cfg6.Geometry.Capacity())
	m6 := mustRun(t, cfg6, tr)
	m5 := mustRun(t, DefaultConfig(RAID5), tr)
	if m6.MeanIOTime <= m5.MeanIOTime {
		t.Fatalf("RAID6 %v not slower than RAID5 %v", m6.MeanIOTime, m5.MeanIOTime)
	}
}

func TestAFRAID6DeferQBetweenRAID6AndDeferBoth(t *testing.T) {
	cfg := DefaultConfig(AFRAID6)
	tr := smallWriteTrace(400, 15*time.Millisecond, time.Second, cfg.Geometry.Capacity())

	m6 := mustRun(t, DefaultConfig(RAID6), tr)

	mq := mustRun(t, DefaultConfig(AFRAID6), tr)
	mb := mustRun(t, DefaultConfig(AFRAID6PQ), tr)

	// Deferring Q removes two of the six I/Os; deferring both removes
	// four more. Strict ordering must hold.
	if !(mb.MeanIOTime < mq.MeanIOTime && mq.MeanIOTime < m6.MeanIOTime) {
		t.Fatalf("ordering violated: defer-both %v, defer-q %v, raid6 %v",
			mb.MeanIOTime, mq.MeanIOTime, m6.MeanIOTime)
	}
}

func TestAFRAID6RebuildsDrainDirty(t *testing.T) {
	for _, mode := range []Mode{AFRAID6, AFRAID6PQ} {
		cfg := DefaultConfig(mode)
		tr := smallWriteTrace(50, 10*time.Millisecond, 5*time.Second, cfg.Geometry.Capacity())
		m := mustRun(t, cfg, tr)
		if m.DirtyAtEnd != 0 {
			t.Fatalf("%v: %d stripes still dirty", mode, m.DirtyAtEnd)
		}
		if m.RebuiltStripes == 0 {
			t.Fatalf("%v: nothing rebuilt", mode)
		}
		if m.FracUnprotected <= 0 || m.FracUnprotected >= 1 {
			t.Fatalf("%v: frac = %g", mode, m.FracUnprotected)
		}
	}
}

// TestAFRAID6DeferQRebuildsQ pins that the synchronous P write of a
// Q-deferring write leaves the stripe marked: Q is still stale, so every
// written stripe must reach the rebuilder, exactly as when both parities
// are deferred.
func TestAFRAID6DeferQRebuildsQ(t *testing.T) {
	tr := smallWriteTrace(50, 10*time.Millisecond, 5*time.Second, DefaultConfig(AFRAID6).Geometry.Capacity())
	both := mustRun(t, DefaultConfig(AFRAID6PQ), tr)
	q := mustRun(t, DefaultConfig(AFRAID6), tr)
	if both.RebuiltStripes != 50 {
		t.Fatalf("defer-both rebuilt %d stripes, want 50", both.RebuiltStripes)
	}
	if q.RebuiltStripes != both.RebuiltStripes {
		t.Fatalf("defer-q rebuilt Q on %d stripes, defer-both on %d", q.RebuiltStripes, both.RebuiltStripes)
	}
	if q.DirtyAtEnd != 0 {
		t.Fatalf("defer-q left %d stripes marked", q.DirtyAtEnd)
	}
}

func TestRAID6CapacitySmaller(t *testing.T) {
	c5 := DefaultConfig(RAID5).Geometry.Capacity()
	c6 := DefaultConfig(RAID6).Geometry.Capacity()
	if c6 >= c5 {
		t.Fatalf("RAID6 capacity %d not below RAID5 %d", c6, c5)
	}
}

func TestModeString(t *testing.T) {
	for _, c := range []struct {
		mode    Mode
		name    string
		m, sync int
	}{
		{RAID0, "RAID0", 0, 0},
		{RAID5, "RAID5", 1, 1},
		{AFRAID, "AFRAID", 1, 0},
		{RAID6, "RAID6", 2, 2},
		{AFRAID6, "AFRAID6", 2, 1},
		{AFRAID6PQ, "AFRAID6PQ", 2, 0},
	} {
		m, sync := c.mode.Parities()
		if c.mode.String() != c.name || m != c.m || sync != c.sync {
			t.Errorf("%v = (%d, %d), want %s (%d, %d)", c.mode, m, sync, c.name, c.m, c.sync)
		}
	}
	if s := Mode(99).String(); s != "Mode(99)" {
		t.Errorf("unknown mode prints %q", s)
	}
}
