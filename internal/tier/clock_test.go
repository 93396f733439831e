package tier

import (
	"sync"
	"sync/atomic"
	"testing"

	"afraid/internal/core"
	"afraid/internal/testutil"
)

// heldRig is a rig on a clock the test holds, whose migrator's own
// wake-ups never come (still): only the test's steps run it.
func heldRig(t *testing.T, wrap func(core.BlockDevice) core.BlockDevice) (*testRig, *testutil.Clock) {
	t.Helper()
	clock := &testutil.Clock{}
	opts := still
	opts.now = clock.Now
	r := openRig(t, opts, 4, wrap, &core.MemNVRAM{})
	t.Cleanup(func() { r.st.Close() })
	return r, clock
}

// promoteTwo writes two extents into the front, both dirty.
func promoteTwo(t *testing.T, r *testRig) {
	t.Helper()
	for _, off := range []int64{0, r.extentSz} {
		if _, err := r.st.WriteAt(make([]byte, 4096), off); err != nil {
			t.Fatal(err)
		}
	}
	if ts := r.st.TierStats(); ts.Promotes != 2 || ts.DirtyExtents != 2 {
		t.Fatalf("setup: %+v, want 2 promotes and 2 dirty extents", ts)
	}
}

// TestMigratorIdleRule: the migrator demotes once the tier has been idle
// IdleDelay on its clock, and not 1 ns before.
func TestMigratorIdleRule(t *testing.T) {
	r, clock := heldRig(t, func(d core.BlockDevice) core.BlockDevice { return d })
	promoteTwo(t, r)

	clock.Advance(still.IdleDelay - 1)
	r.st.mig.step()
	if d := r.st.TierStats().Demotes; d != 0 {
		t.Fatalf("%d demotes 1 ns before IdleDelay, want 0", d)
	}
	clock.Advance(1)
	r.st.mig.step()
	if ts := r.st.TierStats(); ts.Demotes != 2 || ts.DirtyExtents != 0 {
		t.Fatalf("after IdleDelay: %d demotes, %d dirty extents; want the idle episode to demote both", ts.Demotes, ts.DirtyExtents)
	}
}

// hookDev runs hook, where set, inside each read of it. Only the test's
// goroutine reads it: the migrator of a held rig never wakes by itself.
type hookDev struct {
	core.BlockDevice
	hook func()
}

func (d *hookDev) ReadAt(p []byte, off int64) (int, error) {
	if d.hook != nil {
		d.hook()
	}
	return d.BlockDevice.ReadAt(p, off)
}

// TestMigratorIdleEpisodeInterrupted: a client op that lands during an
// idle episode ends it after the demotion in flight.
func TestMigratorIdleEpisodeInterrupted(t *testing.T) {
	var copies []*hookDev
	r, clock := heldRig(t, func(d core.BlockDevice) core.BlockDevice {
		h := &hookDev{BlockDevice: d}
		copies = append(copies, h)
		return h
	})
	promoteTwo(t, r)

	// The first demotion reads its extent from a front copy; a client
	// read of an extent the front does not hold lands meanwhile.
	var once sync.Once
	clientOp := func() {
		once.Do(func() {
			clock.Advance(1)
			if _, err := r.st.ReadAt(make([]byte, 512), 4*r.extentSz); err != nil {
				t.Error(err)
			}
		})
	}
	for _, c := range copies {
		c.hook = clientOp
	}
	clock.Advance(still.IdleDelay)
	r.st.mig.step()
	if ts := r.st.TierStats(); ts.Demotes != 1 || ts.DirtyExtents != 1 {
		t.Fatalf("%d demotes, %d dirty extents; want the client op to stop the episode after 1", ts.Demotes, ts.DirtyExtents)
	}
}

// TestClockReadsPerFrontHit pins how often a front hit reads the tier's
// clock: twice, around its mirrored I/O, the second reading also the op's
// idle stamp.
func TestClockReadsPerFrontHit(t *testing.T) {
	r, clock := heldRig(t, func(d core.BlockDevice) core.BlockDevice { return d })
	buf := make([]byte, 4096)
	if _, err := r.st.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		do   func() (int, error)
	}{
		{"front read hit", func() (int, error) { return r.st.ReadAt(buf, 0) }},
		{"front write hit", func() (int, error) { return r.st.WriteAt(buf, 0) }},
	} {
		r0 := clock.Reads()
		if _, err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if got := clock.Reads() - r0; got != 2 {
			t.Errorf("%s read the clock %d times, want 2", op.name, got)
		}
	}
	if ts := r.st.TierStats(); ts.FrontReadHits != 1 || ts.FrontWriteHits != 1 {
		t.Fatalf("%+v: want one front read hit and one front write hit", ts)
	}
}

// writeGate holds the first front write after it is armed, on whichever
// copy takes it, until release closes.
type writeGate struct {
	core.BlockDevice
	armed            *atomic.Bool
	reached, release chan struct{}
}

func (d writeGate) WriteAt(p []byte, off int64) (int, error) {
	if d.armed.CompareAndSwap(true, false) {
		close(d.reached)
		<-d.release
	}
	return d.BlockDevice.WriteAt(p, off)
}

// TestMigratorWaitsForCompletion: the migrator's idle rule is the paper's
// "completely idle". A client write that began more than IdleDelay ago and
// is still in flight keeps the tier busy, and demotion starts exactly
// IdleDelay after the write completes, not 1 ns before.
func TestMigratorWaitsForCompletion(t *testing.T) {
	armed := &atomic.Bool{}
	reached, release := make(chan struct{}), make(chan struct{})
	r, clock := heldRig(t, func(d core.BlockDevice) core.BlockDevice {
		return writeGate{d, armed, reached, release}
	})
	promoteTwo(t, r)

	armed.Store(true)
	wrote := make(chan error, 1)
	go func() {
		_, err := r.st.WriteAt(make([]byte, 4096), 2*r.extentSz) // a third extent, promoted
		wrote <- err
	}()
	<-reached
	clock.Advance(2 * still.IdleDelay)
	r.st.mig.step()
	if d := r.st.TierStats().Demotes; d != 0 {
		t.Fatalf("%d demotes while a write begun 2×IdleDelay ago was in flight, want 0", d)
	}

	close(release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	clock.Advance(still.IdleDelay - 1)
	r.st.mig.step()
	if d := r.st.TierStats().Demotes; d != 0 {
		t.Fatalf("%d demotes 1 ns before IdleDelay after the write completed, want 0", d)
	}
	clock.Advance(1)
	r.st.mig.step()
	if ts := r.st.TierStats(); ts.Demotes != 3 || ts.DirtyExtents != 0 {
		t.Fatalf("IdleDelay after the write completed: %d demotes, %d dirty extents; want all 3 demoted", ts.Demotes, ts.DirtyExtents)
	}
}
