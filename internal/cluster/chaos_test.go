package cluster

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"math/rand"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/fault"
)

var chaosSeed = flag.Int64("cluster.seed", 20260808, "seed for the cluster chaos run")

// TestChaosNodeFailStopLossContract is the cluster analogue of
// afraidchaos: a seeded workload with a deterministic node fail-stop
// mid-write, then a byte-for-byte audit of the paper's contract at node
// granularity:
//
//  1. every readable byte matches the shadow copy — no silent
//     corruption, ever;
//  2. reads that fail do so with ErrDataLoss, only for stripes that
//     were unredundant (dirty) when the node died;
//  3. after restore + heal + rewrite of the reported-lost stripes, the
//     volume returns to fully redundant and verifiable.
func TestChaosNodeFailStopLossContract(t *testing.T) {
	const (
		nNodes   = 4
		unit     = int64(4096)
		nodeSize = 32 * 4096
	)
	seed := *chaosSeed
	rng := rand.New(rand.NewSource(seed))
	opts := Options{StripeUnit: unit, DisableDrain: true, NodeTimeout: 5 * time.Second}
	v, faults := testVolume(t, nNodes, nodeSize, opts)
	shadow := fillVolume(t, v, seed)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	capacity := v.Capacity()
	sdb := v.Geometry().StripeDataBytes()
	filled := fullStripeWrites(v) // the fill is nothing but full stripes
	victim := rng.Intn(nNodes)
	// Fail-stop after a random number of node ops: lands mid-workload,
	// possibly mid-span, deterministically for a given seed.
	faults[victim].AddRule(fault.Rule{When: fault.After(faults[victim].ops() + uint64(10+rng.Intn(40))), Do: fault.FailStop(), Max: 1})

	// Seeded single-writer workload. Once the victim is observed down,
	// the dirty set at that instant is the allowed-loss set: the
	// volume's own exposure accounting, sampled at failure time.
	var allowed map[int64]bool
	type hole struct{ off, n int64 }
	var holes []hole // writes that reported loss: their bytes are the write's, the old ones, or torn
	noteDown := func() {
		if allowed == nil && v.NodeStates()[victim].State != StateUp {
			allowed = map[int64]bool{}
			for _, st := range v.DirtyList() {
				allowed[st] = true
			}
		}
	}
	for i := 0; i < 120; i++ {
		n := int64(rng.Intn(int(2*unit))) + 1
		off := rng.Int63n(capacity - n)
		// Clamp to one stripe: WriteAt is not atomic across stripes
		// (earlier spans land even when a later span fails), so a
		// byte-exact shadow audit issues stripe-local writes.
		if rem := sdb - off%sdb; n > rem {
			n = rem
		}
		if i%5 == 4 {
			// A whole stripe: written with its parity while every node of
			// it answers, under the degraded protocol afterwards.
			off, n = off/sdb*sdb, sdb
		}
		buf := make([]byte, n)
		rng.Read(buf)
		_, err := v.WriteAt(buf, off)
		switch {
		case err == nil:
			copy(shadow[off:], buf)
		case errors.Is(err, core.ErrDataLoss):
			// Write into a stripe whose absent unit is already lost:
			// must itself be in the allowed set, and stays lost.
			st := off / sdb
			noteDown()
			if !allowed[st] {
				t.Fatalf("write op %d: ErrDataLoss for stripe %d outside allowed set %v", i, st, allowed)
			}
			holes = append(holes, hole{off, n})
		default:
			t.Fatalf("write op %d (off %d len %d): %v", i, off, n, err)
		}
		noteDown()
	}
	if allowed == nil {
		t.Fatalf("victim %d never went down: its fail-stop rule fires too late for the workload", victim)
	}
	if fullStripeWrites(v) == filled {
		t.Fatalf("seed %d: the workload made no full-stripe write before the victim went down", seed)
	}
	t.Logf("seed %d: victim %d, allowed-loss set %d stripes, %d dirty now, %d writes failed",
		seed, victim, len(allowed), v.DirtyStripes(), len(holes))

	// Audit: stripe by stripe. A successful read must match the shadow
	// exactly; a failed read must be ErrDataLoss on an allowed stripe.
	lost := 0
	buf := make([]byte, sdb)
	for st := int64(0); st < v.Geometry().Stripes(); st++ {
		_, err := v.ReadAt(buf, st*sdb)
		switch {
		case err == nil:
			if !bytes.Equal(buf, shadow[st*sdb:(st+1)*sdb]) {
				t.Fatalf("SILENT CORRUPTION: stripe %d read succeeded with wrong bytes", st)
			}
		case errors.Is(err, core.ErrDataLoss):
			if !allowed[st] {
				t.Fatalf("stripe %d reported lost but was redundant at failure time", st)
			}
			lost++
		default:
			t.Fatalf("stripe %d: unexpected read error %v", st, err)
		}
	}
	t.Logf("audit: %d stripes lost (allowed %d)", lost, len(allowed))

	// Recovery: restore the node, heal, overwrite what was reported lost
	// and the ranges failed writes left indeterminate, and the volume must
	// come back fully redundant with every other byte as the shadow has it.
	faults[victim].Heal()
	rep, err := v.HealNode(context.Background(), victim, false)
	if err != nil {
		t.Fatalf("HealNode: %v", err)
	}
	for _, st := range rep.Lost {
		if !allowed[st] {
			t.Fatalf("heal reported stripe %d lost outside allowed set", st)
		}
	}
	for _, st := range rep.Lost {
		holes = append(holes, hole{st * sdb, sdb})
	}
	for _, h := range holes {
		fresh := make([]byte, h.n)
		rng.Read(fresh)
		if _, err := v.WriteAt(fresh, h.off); err != nil {
			t.Fatalf("rewrite of [%d,%d): %v", h.off, h.off+h.n, err)
		}
		copy(shadow[h.off:], fresh)
	}
	// Rewrites may have left stale bits if they raced nothing here —
	// a second sweep must find nothing left to do.
	rep2, err := v.HealNode(context.Background(), victim, false)
	if err != nil || len(rep2.Lost) != 0 || rep2.Remaining != 0 {
		t.Fatalf("second heal = %+v, %v; want clean", rep2, err)
	}
	if err := v.Flush(context.Background()); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	bad, skipped, err := v.VerifyParity(context.Background())
	if err != nil || len(bad) != 0 || skipped != 0 {
		t.Fatalf("VerifyParity after recovery = (%v, %d, %v)", bad, skipped, err)
	}
	got := make([]byte, capacity)
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("post-recovery data mismatch")
	}
}

// TestChaosManySeeds runs the contract audit over a spread of seeds so
// the fail-stop lands at different points (mid-span, between spans, on
// different victims and roles).
func TestChaosManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed chaos sweep in -short mode")
	}
	base := *chaosSeed
	for i := int64(1); i <= 6; i++ {
		seed := base + i*7919
		t.Run("", func(t *testing.T) {
			old := *chaosSeed
			*chaosSeed = seed
			defer func() { *chaosSeed = old }()
			TestChaosNodeFailStopLossContract(t)
		})
	}
}
