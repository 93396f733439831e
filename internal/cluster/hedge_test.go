package cluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"afraid/internal/fault"
)

// TestHedgedReadBoundsBrownoutTail is the ISSUE 10 latency acceptance,
// counted rather than timed: with one node browned out at a fixed latency
// far past the hedge delay, every read homed on it — and no other — is
// hedged, the reconstruction path answers each of them with the right
// bytes, and the node is not demoted. What a hedged read costs is then
// the hedge delay plus a reconstruction, by construction; a p99 ratio
// measured that against the machine's load.
func TestHedgedReadBoundsBrownoutTail(t *testing.T) {
	const (
		unit       = 4096
		stripes    = 16
		slow       = 2
		brownout   = 250 * time.Millisecond
		hedgeDelay = 25 * time.Millisecond // healthy nodes answer at once
	)
	opts := quietOpts()
	opts.HedgeDelay = hedgeDelay
	v, nodes := testVolume(t, 4, stripes*unit, opts)
	shadow := fillVolume(t, v, 99)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// readAll reads the volume a unit at a time and returns how many of
	// the units live on the slow node.
	geo := v.Geometry()
	readAll := func() (onSlow uint64) {
		buf := make([]byte, unit)
		for st := int64(0); st < stripes; st++ {
			for idx := 0; idx < geo.DataDisks(); idx++ {
				if geo.DataDisk(st, idx) == slow {
					onSlow++
				}
				off := st*geo.StripeDataBytes() + int64(idx)*unit
				if _, err := v.ReadAt(buf, off); err != nil {
					t.Fatalf("read of stripe %d unit %d: %v", st, idx, err)
				}
				if !bytes.Equal(buf, shadow[off:off+unit]) {
					t.Fatalf("read of stripe %d unit %d returned wrong bytes", st, idx)
				}
			}
		}
		return onSlow
	}

	readAll()
	if st := v.Stats(); st.HedgedReads != 0 {
		t.Fatalf("%d hedges fired on a healthy cluster", st.HedgedReads)
	}
	nodes[slow].AddRule(fault.Rule{Do: fault.Delay(brownout)})
	onSlow := readAll()
	st := v.Stats()
	if onSlow == 0 || st.HedgedReads != onSlow || st.HedgeWins != onSlow {
		t.Errorf("%d reads homed on the browned-out node: hedged=%d, answered by reconstruction=%d; want all three equal",
			onSlow, st.HedgedReads, st.HedgeWins)
	}
	// The browned-out node answered (slowly) every time: hedging hid the
	// latency without spending a demotion on a live node.
	if s := v.NodeStates(); s[slow].State != StateUp {
		t.Errorf("browned-out node state = %v, want up", s[slow].State)
	}
}

// TestHedgeDisabled pins the opt-out: HedgeDelay < 0 must never hedge.
func TestHedgeDisabled(t *testing.T) {
	opts := quietOpts()
	opts.HedgeDelay = -1
	v, _ := testVolume(t, 4, 16*4096, opts)
	fillVolume(t, v, 3)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := 0; i < 32; i++ {
		if _, err := v.ReadAt(buf, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if st := v.Stats(); st.HedgedReads != 0 {
		t.Fatalf("hedges fired with hedging disabled: %d", st.HedgedReads)
	}
}

// TestHedgeAutoDelayDerivesFromP99 pins auto mode: with enough samples
// the delay tracks the merged node-read p99 (clamped), not the default.
func TestHedgeAutoDelayDerivesFromP99(t *testing.T) {
	opts := quietOpts()
	v, _ := testVolume(t, 4, 16*4096, opts)
	fillVolume(t, v, 5)
	// Seed the node-read histograms with a known distribution.
	for i := 0; i < 200; i++ {
		v.ob.nodeRead[i%4].Observe(10 * time.Millisecond)
	}
	v.hedgeEval.Store(0) // invalidate the cache
	if d := v.hedgeDelay(); d < 5*time.Millisecond || d > 20*time.Millisecond {
		t.Fatalf("auto hedge delay = %v, want ~10ms from the seeded p99", d)
	}
}
