package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/fault"
)

// fillVolume writes seeded data over the whole volume and returns the
// shadow copy.
func fillVolume(t *testing.T, v *Volume, seed int64) []byte {
	t.Helper()
	shadow := make([]byte, v.Capacity())
	rand.New(rand.NewSource(seed)).Read(shadow)
	if _, err := v.WriteAt(shadow, 0); err != nil {
		t.Fatal(err)
	}
	return shadow
}

// TestDegradedReadAfterCrash: with parity settled, every byte must stay
// readable after any single node crashes, served by reconstruction.
func TestDegradedReadAfterCrash(t *testing.T) {
	for victim := 0; victim < 4; victim++ {
		v, faults := testVolume(t, 4, 16*4096, quietOpts())
		shadow := fillVolume(t, v, int64(victim))
		if err := v.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		faults[victim].Fail()
		got := make([]byte, v.Capacity())
		if _, err := v.ReadAt(got, 0); err != nil {
			t.Fatalf("victim %d: degraded read: %v", victim, err)
		}
		if !bytes.Equal(got, shadow) {
			t.Fatalf("victim %d: degraded read returned wrong data", victim)
		}
		st := v.Stats()
		if st.DegradedReads == 0 {
			t.Errorf("victim %d: no degraded reads counted", victim)
		}
		if st.NodeFailovers == 0 {
			t.Errorf("victim %d: crash not detected as failover", victim)
		}
		v.Close()
	}
}

// TestDirtyStripeLossIsReported is the loss contract at node
// granularity: a stripe unredundant when its node died must fail reads
// of the absent unit with ErrDataLoss — and clean stripes plus the
// dirty stripe's surviving units must still read fine.
func TestDirtyStripeLossIsReported(t *testing.T) {
	v, faults := testVolume(t, 4, 16*4096, quietOpts())
	shadow := fillVolume(t, v, 7)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Dirty exactly stripe 2, then kill a node carrying its data.
	sdb := v.Geometry().StripeDataBytes()
	if _, err := v.WriteAt(shadow[2*sdb:2*sdb+4096], 2*sdb); err != nil {
		t.Fatal(err)
	}
	if got := v.DirtyList(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("dirty = %v, want [2]", got)
	}
	victim := v.Geometry().DataDisk(2, 0)
	faults[victim].Fail()

	// The absent unit of the dirty stripe: always-reported loss.
	buf := make([]byte, 4096)
	if _, err := v.ReadAt(buf, 2*sdb); !errors.Is(err, core.ErrDataLoss) {
		t.Fatalf("read of lost unit = %v, want ErrDataLoss", err)
	}
	// Units of the dirty stripe on surviving nodes are directly readable.
	if _, err := v.ReadAt(buf, 2*sdb+4096); err != nil {
		t.Fatalf("read of surviving unit in dirty stripe: %v", err)
	}
	if !bytes.Equal(buf, shadow[2*sdb+4096:2*sdb+2*4096]) {
		t.Fatal("surviving unit mismatch")
	}
	// Clean stripes reconstruct fine.
	if _, err := v.ReadAt(buf, 0); err != nil {
		t.Fatalf("clean stripe read: %v", err)
	}
	if !bytes.Equal(buf, shadow[:4096]) {
		t.Fatal("clean stripe mismatch")
	}
	// Flush cannot drain the stripe (its node is gone) and must say so.
	if err := v.Flush(context.Background()); !errors.Is(err, core.ErrTooManyFailures) {
		t.Fatalf("Flush with undrainable stripe = %v, want core.ErrTooManyFailures", err)
	}
	if got := v.DirtyList(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("dirty after degraded flush = %v, want [2] (exposure preserved)", got)
	}
}

// TestDegradedWritesMaintainParity: while a node is down, writes switch
// to the synchronous protocol, so no new exposure accrues and all data
// (including bytes routed around the dead node) reads back correctly —
// both degraded and, after heal, from the healed node itself.
func TestDegradedWritesMaintainParity(t *testing.T) {
	v, faults := testVolume(t, 4, 16*4096, quietOpts())
	shadow := fillVolume(t, v, 11)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	const victim = 1
	faults[victim].Fail()

	// A spread of degraded writes: full stripes, partial units touching
	// the victim's unit, partial writes missing it entirely.
	rng := rand.New(rand.NewSource(99))
	sdb := v.Geometry().StripeDataBytes()
	writes := []struct{ off, n int64 }{
		{0, sdb},                 // full stripe 0
		{3*sdb + 100, 5000},      // partial, crosses units
		{5 * sdb, 4096},          // exactly one unit
		{7*sdb + 4096, 2 * 4096}, // two units
		{9*sdb + 8191, 2},        // tiny, straddles a unit edge
	}
	for _, w := range writes {
		buf := make([]byte, w.n)
		rng.Read(buf)
		if _, err := v.WriteAt(buf, w.off); err != nil {
			t.Fatalf("degraded write (%d,%d): %v", w.off, w.n, err)
		}
		copy(shadow[w.off:], buf)
	}
	if st := v.Stats(); st.DegradedWrites == 0 {
		t.Error("no degraded writes counted")
	}
	if n := v.DirtyStripes(); n != 0 {
		t.Fatalf("degraded writes left %d stripes dirty: exposure grew while redundancy was spent", n)
	}
	// Everything reads back (the victim's units via reconstruction).
	got := make([]byte, v.Capacity())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("mismatch while degraded")
	}

	// Bring the node back and heal. Only the stripes the node missed
	// writes for should need rebuilding.
	faults[victim].Heal()
	rep, err := v.HealNode(context.Background(), victim, false)
	if err != nil {
		t.Fatalf("HealNode: %v", err)
	}
	if len(rep.Lost) != 0 || rep.Remaining != 0 {
		t.Fatalf("heal report %+v, want no loss, nothing remaining", rep)
	}
	if rep.Healed == 0 {
		t.Error("heal rebuilt nothing despite routed writes")
	}
	states := v.NodeStates()
	if states[victim].State != StateUp || states[victim].StaleStripes != 0 {
		t.Fatalf("victim after heal: %+v", states[victim])
	}

	// Proof the healed units hold real data: kill a different node and
	// read everything — reconstruction now leans on the healed node.
	other := (victim + 2) % 4
	faults[other].Fail()
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("read after second crash: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("mismatch after heal + second crash: heal wrote wrong bytes")
	}
}

// TestTwoNodesDownExceedsParity: single parity cannot cover two absent
// data units; operations needing both must fail crisply.
func TestTwoNodesDownExceedsParity(t *testing.T) {
	v, faults := testVolume(t, 4, 16*4096, quietOpts())
	fillVolume(t, v, 3)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	faults[0].Fail()
	faults[1].Fail()
	// Stripe 0 has data on nodes 0,1,2: two of three data units gone.
	buf := make([]byte, 4096)
	_, err := v.ReadAt(buf, 0)
	if !errors.Is(err, core.ErrTooManyFailures) {
		t.Fatalf("read with 2 data nodes down = %v, want %v", err, core.ErrTooManyFailures)
	}
	_, err = v.WriteAt(buf, 0)
	if !errors.Is(err, core.ErrTooManyFailures) {
		t.Fatalf("write with 2 data nodes down = %v, want %v", err, core.ErrTooManyFailures)
	}
}

// TestEveryAbsentUnitIsCounted: the health snapshot names every data unit
// a stripe cannot serve, not only as many as parity could cover. Stripe 0
// of a 4-node volume loses two data nodes, and its third data unit is stale
// on a node that is up: an op on that unit alone must be refused, not
// answered with the stale bytes because the set of absent units was full
// before it got there.
func TestEveryAbsentUnitIsCounted(t *testing.T) {
	v, _ := testVolume(t, 4, 16*4096, quietOpts())
	fillVolume(t, v, 3)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	last := v.geo.DataDisks() - 1
	for idx := 0; idx < last; idx++ {
		failNode(v, v.geo.DataDisk(0, idx))
	}
	if err := v.st.Engine().MarkStale(v.geo.DataDisk(0, last), 0, 1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, v.geo.StripeUnit)
	off := int64(last) * v.geo.StripeUnit
	if _, err := v.ReadAt(buf, off); !errors.Is(err, core.ErrTooManyFailures) {
		t.Fatalf("read of a stale unit beside two absent ones = %v, want core.ErrTooManyFailures", err)
	}
	if _, err := v.WriteAt(buf[:1], off); !errors.Is(err, core.ErrTooManyFailures) {
		t.Fatalf("write into a stale unit beside two absent ones = %v, want core.ErrTooManyFailures", err)
	}
}

// TestFullHeal rebuilds a blank replacement node: every unit the node
// hosts is reconstructed, after which it serves reads alone.
func TestFullHeal(t *testing.T) {
	v, faults := testVolume(t, 4, 16*4096, quietOpts())
	shadow := fillVolume(t, v, 5)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	// "Replace" node 2's disk with a blank one.
	if _, err := faults[2].Backing().WriteAt(make([]byte, 16*4096), 0); err != nil {
		t.Fatal(err)
	}
	rep, err := v.HealNode(context.Background(), 2, true)
	if err != nil {
		t.Fatalf("full heal: %v", err)
	}
	if len(rep.Lost) != 0 {
		t.Fatalf("full heal of clean volume lost stripes: %v", rep.Lost)
	}
	// The blank node must now hold everything: read with all others of
	// each stripe... simplest proof: verify parity and read all data
	// after killing a different node.
	bad, skipped, err := v.VerifyParity(context.Background())
	if err != nil || len(bad) != 0 || skipped != 0 {
		t.Fatalf("VerifyParity after full heal = (%v, %d, %v)", bad, skipped, err)
	}
	faults[0].Fail()
	got := make([]byte, v.Capacity())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("data mismatch after full heal: blank node served garbage")
	}
}

// TestSlowNodeTimesOutAndFailsOver: a browned-out node must be cut
// loose by NodeTimeout and served around, not waited on forever.
func TestSlowNodeTimesOutAndFailsOver(t *testing.T) {
	opts := quietOpts()
	opts.NodeTimeout = 50 * time.Millisecond
	v, faults := testVolume(t, 4, 16*4096, opts)
	shadow := fillVolume(t, v, 13)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	faults[2].AddRule(fault.Rule{Do: fault.Delay(10 * time.Second)}) // far past the node timeout
	got := make([]byte, 3*4096)
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("read with slow node: %v", err)
	}
	if !bytes.Equal(got, shadow[:len(got)]) {
		t.Fatal("mismatch reading around slow node")
	}
	// A hedge may have answered the read before the straggling primary
	// hit NodeTimeout, so the demotion lands asynchronously — but it
	// must land: hedging hides the latency, the timeout still cuts a
	// wedged node loose.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if states := v.NodeStates(); states[2].State != StateUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow node still considered up after timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
