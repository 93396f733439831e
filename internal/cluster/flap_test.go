package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/fault"
	"afraid/internal/testutil"
)

// flapOpts builds options for a prober-driven flap test: tight probe
// cadence and no hedging so op counts stay deterministic.
func flapOpts() Options {
	o := quietOpts()
	o.ProbeInterval = 5 * time.Millisecond
	o.QuarantineDecay = -1 // administrator-only
	o.HedgeDelay = -1
	return o
}

// flap makes n flap deterministically until the returned switch is turned
// off: 15 ops served, 4 refused as a failed device, then it "restarts" and
// the cycle repeats. Unlike a crash the node recovers by itself, so without
// damping the volume demotes, redials, and heals it forever.
func flap(n faultNode) *atomic.Bool {
	base := n.ops()
	return switchable(fault.Rule{When: func(op fault.Op, _ *rand.Rand) bool { return (op.N-base-1)%19 >= 15 }, Do: fault.Transient(nil)}, n)
}

// TestFlapDampingQuarantinesFlappingNode is the ISSUE 10 heal-storm
// acceptance: a deterministic flapping node (N ops up, a few down,
// auto-restart) must produce a bounded number of demote/redial/heal
// cycles and end quarantined — not the unbounded storm the undamped
// prober drove — and an administrator heal must then recover it fully.
func TestFlapDampingQuarantinesFlappingNode(t *testing.T) {
	const unit = 4096
	opts := flapOpts()
	v, faults := testVolume(t, 4, 16*unit, opts)
	shadow := fillVolume(t, v, 21)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	flapping := flap(faults[2])

	// Drive writes until the damper fences the node off. Every write is
	// also applied to the shadow unless the volume reported it impossible
	// (ErrDataLoss on a stripe that was unredundant at a flap point —
	// legal, and always reported).
	rng := rand.New(rand.NewSource(33))
	buf := make([]byte, unit)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if s := v.NodeStates(); s[2].State == StateQuarantined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flapping node was never quarantined")
		}
		off := rng.Int63n(v.Capacity()/unit) * unit
		rng.Read(buf)
		if _, err := v.WriteAt(buf, off); err != nil {
			if errors.Is(err, core.ErrDataLoss) {
				continue // reported loss; the final audit rewrites it
			}
			t.Fatalf("write at %d: %v", off, err)
		}
		copy(shadow[off:], buf)
	}

	st := v.Stats()
	if st.Quarantines != 1 {
		t.Errorf("quarantines = %d, want 1", st.Quarantines)
	}
	// The damping policy bounds the storm: at most FlapThreshold
	// demotions (the threshold trips on the last one) and at most one
	// auto-heal per redial that preceded them.
	if st.NodeFailovers > FlapThreshold+1 {
		t.Errorf("node failovers = %d, want <= %d (bounded by damping)",
			st.NodeFailovers, FlapThreshold+1)
	}
	if st.AutoHeals > FlapThreshold+1 {
		t.Errorf("auto-heals = %d, want <= %d (bounded by damping)",
			st.AutoHeals, FlapThreshold+1)
	}
	if s := v.NodeStates(); s[2].ConsecFails == 0 {
		t.Error("quarantined node reports zero consecutive failures")
	}

	// Quarantined means left alone: with the foreground quiet and the
	// heal in flight at the flap point done, no prober tick sends the node
	// another operation.
	probeStep(t, v)
	before := served(faults[2])
	for k := 0; k < 20; k++ {
		probeStep(t, v)
	}
	if after := served(faults[2]); after != before {
		t.Errorf("quarantined node still probed: ops %d -> %d", before, after)
	}

	// Administrator path: fix the machine (stop the flapping), heal it.
	flapping.Store(false)
	rep, err := v.HealNode(context.Background(), 2, false)
	if err != nil {
		t.Fatalf("admin heal: %v", err)
	}
	for _, lost := range rep.Lost {
		// Stripes unredundant at a flap point are honestly lost; rewrite
		// them (3 data units each) and move on — the paper's contract.
		off := lost * 3 * unit
		if _, err := v.WriteAt(shadow[off:off+3*unit], off); err != nil {
			t.Fatalf("rewrite lost stripe %d: %v", lost, err)
		}
	}
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, "node 2 back up", func() bool {
		s := v.NodeStates()
		return s[2].State == StateUp && s[2].StaleStripes == 0
	})
	got := make([]byte, v.Capacity())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("final read: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("volume diverged from shadow after flap storm + heal")
	}
	if bad, _, err := v.VerifyParity(context.Background()); err != nil || len(bad) > 0 {
		t.Fatalf("parity verify: bad=%v err=%v", bad, err)
	}
}

// TestQuarantineDecayReadmitsNode: with a decay configured, a
// quarantined node whose fault has cleared comes back without an
// administrator — the prober lifts the fence after the decay and heals.
func TestQuarantineDecayReadmitsNode(t *testing.T) {
	const unit = 4096
	opts := flapOpts()
	opts.QuarantineDecay = 150 * time.Millisecond
	opts.Logf = t.Logf
	v, faults := testVolume(t, 4, 16*unit, opts)
	shadow := fillVolume(t, v, 22)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	flapping := flap(faults[2])
	rng := rand.New(rand.NewSource(44))
	buf := make([]byte, unit)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if s := v.NodeStates(); s[2].State == StateQuarantined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flapping node was never quarantined")
		}
		off := rng.Int63n(v.Capacity()/unit) * unit
		rng.Read(buf)
		if _, err := v.WriteAt(buf, off); err != nil && !errors.Is(err, core.ErrDataLoss) {
			t.Fatalf("write: %v", err)
		}
	}
	// The machine "gets fixed" while quarantined; after the decay the
	// prober readmits and redials it with no administrator involved.
	flapping.Store(false)
	// Readmitted = reachable again: StateUp, or StateHealing when the
	// auto-heal honestly reported lost stripes (they stay stale until a
	// client rewrites them, and the node reports as healing meanwhile).
	testutil.Eventually(t, "quarantine decay readmission", func() bool {
		s := v.NodeStates()[2].State
		return s == StateUp || s == StateHealing
	})
	// Stripes that were dirty at a flap point are honest losses: the
	// auto-heal reports them and keeps them stale until a client
	// rewrites them. Rewrite everything, and the marks must all clear.
	rng.Read(shadow)
	if _, err := v.WriteAt(shadow, 0); err != nil {
		t.Fatalf("rewrite after readmission: %v", err)
	}
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, "stale units cleared by the rewrite", func() bool {
		s := v.NodeStates()
		return s[2].State == StateUp && s[2].StaleStripes == 0
	})
	got := make([]byte, v.Capacity())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("final read: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("volume diverged after decay readmission + rewrite")
	}
	if bad, _, err := v.VerifyParity(context.Background()); err != nil || len(bad) > 0 {
		t.Fatalf("parity verify: bad=%v err=%v", bad, err)
	}
}

// TestProbeConcurrency: one node wedged at NodeTimeout must not delay
// detection of another dead node by the old sequential probe sweep.
func TestProbeConcurrency(t *testing.T) {
	opts := quietOpts()
	opts.NodeTimeout = 500 * time.Millisecond
	opts.ProbeInterval = 10 * time.Millisecond
	opts.HedgeDelay = -1
	v, faults := testVolume(t, 4, 16*4096, opts)
	faults[0].AddRule(fault.Rule{Do: fault.Delay(2 * time.Second)}) // wedged: its ping parks until NodeTimeout
	faults[1].Fail()                                                // dead: its ping fails instantly
	// A sequential prober would spend 500 ms on node 0 before looking at
	// node 1; the concurrent prober demotes node 1 within a few ticks.
	for deadline := time.Now().Add(300 * time.Millisecond); v.NodeStates()[1].State != StateDown; {
		if time.Now().After(deadline) {
			t.Fatal("dead node not demoted within 300 ms while another is wedged")
		}
		time.Sleep(time.Millisecond)
	}
}
