package cluster

import (
	"context"
	"fmt"
	"time"

	"afraid/internal/layout"
	"afraid/internal/nvram"
	"afraid/internal/stripe"
)

// nodeIO is the volume's nodes as a stripe.Image moves units through
// them, for one call: nodeRead and nodeWrite under the call's context, so
// NodeTimeout, demotion and the stale-marking of a failed write apply to
// every unit of every stripe operation.
type nodeIO struct {
	v   *Volume
	ctx context.Context
}

func (n nodeIO) ReadUnit(i int, p []byte, off int64) error {
	return n.v.nodeRead(n.ctx, i, p, off)
}

func (n nodeIO) WriteUnit(i int, p []byte, off int64) error {
	return n.v.nodeWrite(n.ctx, i, p, off)
}

// image returns a pooled image of the stripe (internal/stripe: the units
// in memory, their overlapped I/O, solve and encode — the mechanics core
// runs its disks on); the caller releases it.
func (v *Volume) image(ctx context.Context, st int64) *stripe.Image {
	return v.arr.Get(nodeIO{v, ctx}, st)
}

// absent is the member set holding node alone: the one unit a single-
// parity stripe can be solved around.
func absent(node int) (s stripe.Set) {
	s.Add(node, 1)
	return s
}

// writeSpanDegraded applies a span to a stripe with one absent data
// unit (index bIdx) under the synchronous protocol: build the full
// stripe image, apply the new bytes, write touched units and freshly
// computed parity in one stripe-locked step. The stripe is marked
// unredundant for the duration so a crash mid-protocol is recorded,
// and leaves the protocol clean (redundant again) — degraded writes
// never grow the exposure set.
//
// coversB means the span fully overwrites the absent unit, so its old
// contents are not needed; otherwise the stripe is clean (writeSpan
// guarantees it) and the unit is solved from parity.
func (v *Volume) writeSpanDegraded(ctx context.Context, p []byte, base int64, sp layout.StripeSpan, h stripeHealth, bIdx int, coversB bool) error {
	st := sp.Stripe
	pNode, bNode := v.geo.ParityDisk(st), v.geo.DataDisk(st, bIdx)
	bReachable := v.up(bNode) // up but stale here
	if !coversB && !h.parityRead {
		// Solving the absent unit needs a valid parity unit; without one
		// this stripe is short two units.
		return fmt.Errorf("%w: stripe %d parity unavailable", ErrTooManyNodes, st)
	}

	// Phase 1: assemble the current image. Survivor units come from
	// their nodes; the absent unit from parity (unless fully covered).
	im := v.image(ctx, st)
	defer im.Release()
	var err error
	switch {
	case sp.FullStripe(v.geo): // overwrites everything a load would bring
	case coversB:
		err = im.Load(absent(bNode), 0, 0, v.geo.StripeUnit)
	default:
		_, err = im.Solve(absent(bNode), 1, 0, v.geo.StripeUnit)
	}
	if err != nil {
		return err
	}

	// Record the exposure before mutating remote state: a crash between
	// here and the unmark below re-runs as a parity rebuild (or an
	// honest loss report if the absent node is lost for good).
	if err := v.eng.Mark(st); err != nil {
		return err
	}

	// Phase 2: apply the span and recompute parity over the new image.
	touched := make([]bool, len(im.Data))
	for _, e := range sp.Extents {
		copy(im.Data[e.DataIdx][e.UnitOff:], p[e.ArrOff-base:e.ArrOff-base+e.Len])
		touched[e.DataIdx] = true
	}
	im.Encode()

	// Phase 3: write touched units and parity, together. The absent unit
	// is written only when its node is reachable (healing); otherwise its
	// new contents live in parity and the unit is marked stale.
	for idx, keep := range touched {
		if idx == bIdx {
			keep = bReachable
		}
		if !keep {
			im.Drop(idx)
		}
	}
	if err := im.Store(stripe.Set{}); err != nil {
		return err
	}

	// Phase 4: the stripe is redundant again; settle the marks.
	v.eng.ClearStale(pNode, st) // parity unit just rewritten
	if bReachable {
		v.eng.ClearStale(bNode, st) // full unit just rewritten
	} else if touched[bIdx] {
		// New bytes for the absent unit exist only in parity; the
		// physical unit must be rebuilt before the node is trusted.
		if err := v.eng.MarkStale(bNode, st, st+1); err != nil {
			return err
		}
	}
	v.meta.Lock()
	v.stats.DegradedWrites++
	v.meta.Unlock()
	v.eng.Clear(st)
	return v.eng.Commit()
}

// drainStripe is the volume's half of the deferred-redundancy engine:
// make one stripe redundant — read every data unit, XOR, write the
// parity unit — and the engine clears its dirty bit. It skips when a
// node the stripe needs is unavailable: the stripe stays marked and a
// later drain (after heal) retries.
func (v *Volume) drainStripe(ctx context.Context, c nvram.Claim) (nvram.Outcome, error) {
	st := c.Unit
	lk := v.stripeLock(st)
	lk.Lock()
	defer lk.Unlock()
	if !c.Proceed() {
		return nvram.Skip, nil
	}
	if h := v.health(st); len(h.badIdx) > 0 || !h.parityWrit {
		return nvram.Skip, nil
	}
	t0 := time.Now()
	if err := v.rebuildParityUnit(ctx, st); err != nil {
		return nvram.Skip, ignoreNodeDown(err)
	}
	v.ob.drain.Observe(time.Since(t0))
	return nvram.Done, nil
}

// rebuildParityUnit recomputes a stripe's parity unit from its data
// units and writes it, leaving the stripe redundant and its parity unit
// no longer stale; clearing the dirty bit is the caller's. Caller holds
// the stripe lock and has checked the nodes involved are available.
func (v *Volume) rebuildParityUnit(ctx context.Context, st int64) error {
	im := v.image(ctx, st)
	defer im.Release()
	if err := im.Load(stripe.Set{}, 0, 0, v.geo.StripeUnit); err != nil {
		return err
	}
	im.Encode()
	pNode := v.geo.ParityDisk(st)
	if err := v.nodeWrite(ctx, pNode, im.Par[0], v.geo.DiskOffset(st)); err != nil {
		return err
	}
	v.eng.ClearStale(pNode, st)
	return nil
}
