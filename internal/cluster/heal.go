package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"afraid/internal/layout"
	"afraid/internal/nvram"
	"afraid/internal/stripe"
)

// HealReport summarises one heal sweep.
type HealReport struct {
	Healed int64 // stripe units rebuilt onto the node
	// Lost lists stripes whose contents on this node are unrecoverable:
	// they were unredundant (dirty) when the node went down, so neither
	// the unit nor the parity to rebuild it survives. They stay marked
	// — reads keep reporting ErrDataLoss until a client rewrites them —
	// honouring the contract that loss is always reported.
	Lost []int64
	// Remaining counts stripes skipped because another node they need
	// was unavailable; a later sweep can finish them.
	Remaining int64
}

// HealNode brings node i back into the volume: redial it if it is down
// (Member.Dial), then rebuild exactly the stripe units it missed — its
// stale map. full is the "replaced with a blank machine" case: every unit
// of node i is marked stale first, durably, so reads go around the node
// until the heal has rebuilt each unit, across a restart of the volume
// too. Safe to run while the volume serves I/O; concurrent writes to a
// stripe being healed are serialised by the stripe locks.
func (v *Volume) HealNode(ctx context.Context, i int, full bool) (HealReport, error) {
	if i < 0 || i >= len(v.nodes) {
		return HealReport{}, fmt.Errorf("cluster: no node %d", i)
	}
	// An explicit heal is an administrative act of trust: lift any flap
	// quarantine — and forget the flap history, so the repaired node is
	// not re-fenced on its first future wobble. The prober's auto-heals
	// go through healNode directly and leave the history alone; that is
	// what lets the damper count a flapping node's cycles at all.
	v.meta.Lock()
	v.clearQuarantineLocked(v.nodes[i])
	v.meta.Unlock()
	return v.healNode(ctx, i, full)
}

// healNode is HealNode without the administrative quarantine reset.
func (v *Volume) healNode(ctx context.Context, i int, full bool) (HealReport, error) {
	var rep HealReport
	v.meta.Lock()
	m := v.nodes[i]
	if v.closed {
		v.meta.Unlock()
		return rep, ErrClosed
	}
	needDial := m.state == StateDown || m.node == nil
	v.meta.Unlock()

	if full {
		if err := v.eng.MarkStale(i, 0, v.geo.Stripes()); err != nil {
			return rep, err
		}
	}
	if needDial {
		if err := v.redialNode(i); err != nil {
			return rep, err
		}
		v.logf("cluster: node %d (%s) redialed, healing", i, m.addr)
	}

	stripes := v.eng.StaleUnits(i)
	// The sweep runs Workers stripes at a time — a stripe is two node
	// round trips, and the sweep is the volume's MTTR — so stripes finish
	// out of order and Lost is sorted afterwards.
	var mu sync.Mutex // guards rep while the sweep runs
	err := nvram.ForEach(ctx, v.opts.Workers, 0, int64(len(stripes)), func(k int64) error {
		var part HealReport
		v.healStripe(ctx, i, stripes[k], &part)
		mu.Lock()
		rep.Healed += part.Healed
		rep.Lost = append(rep.Lost, part.Lost...)
		rep.Remaining += part.Remaining
		mu.Unlock()
		return nil
	})
	slices.Sort(rep.Lost)
	if err != nil {
		return rep, err
	}
	// Stripes left dirty (parity-role backlog, loss survivors) are the
	// drain's problem now; its next poll finds them.
	v.meta.Lock()
	if m.state == StateUp {
		m.consecFails = 0 // clean sweep: the node earned its record back
	}
	v.meta.Unlock()
	return rep, nil
}

// redialNode dials a down member, sanity-checks the replacement
// connection, and promotes it to StateUp under a fresh generation. It
// does not rebuild anything — callers schedule the heal.
func (v *Volume) redialNode(i int) error {
	v.meta.Lock()
	m := v.nodes[i]
	if v.closed {
		v.meta.Unlock()
		return ErrClosed
	}
	if m.state == StateUp && m.node != nil {
		v.meta.Unlock()
		return nil
	}
	dial := m.dial
	v.meta.Unlock()
	if dial == nil {
		return fmt.Errorf("%w: node %d has no dialer", ErrNodeDown, i)
	}
	n, err := dial()
	if err != nil {
		return fmt.Errorf("cluster: redial node %d: %w", i, err)
	}
	if c := n.Capacity(); c < v.geo.DiskSize {
		n.Close()
		return fmt.Errorf("cluster: node %d shrank: capacity %d < %d", i, c, v.geo.DiskSize)
	}
	v.meta.Lock()
	if v.closed {
		v.meta.Unlock()
		n.Close()
		return ErrClosed
	}
	if m.state == StateUp && m.node != nil {
		// Lost the race to another redial; this conn is surplus.
		v.meta.Unlock()
		n.Close()
		return nil
	}
	m.node = n
	m.state = StateUp
	m.lastErr = nil
	m.gen++
	v.meta.Unlock()
	v.logf("cluster: node %d (%s) redialed", i, m.addr)
	return nil
}

// healStripe rebuilds node i's unit of one stripe, if it is still stale.
func (v *Volume) healStripe(ctx context.Context, i int, st int64, rep *HealReport) {
	lk := v.stripeLock(st)
	lk.Lock()
	defer lk.Unlock()
	t0 := time.Now()

	h := v.health(st)
	if !h.stale.Has(i) {
		return // a write has rewritten the unit since the sweep began
	}
	if !v.up(i) {
		rep.Remaining++ // node died again mid-sweep
		return
	}
	role, dIdx := v.geo.RoleOf(st, i)
	switch role {
	case layout.Parity:
		// A stale parity unit is healed by recomputation, which also
		// drains the stripe if it was dirty.
		if len(h.badIdx) > 0 || v.rebuildParityUnit(ctx, st) != nil {
			rep.Remaining++
			return
		}
		v.eng.Clear(st)
		if v.eng.Commit() != nil {
			rep.Remaining++
			return
		}
	case layout.Data:
		if h.dirty {
			// Unredundant at failure time: the unit is gone and parity
			// cannot bring it back. Report, keep the marks, move on.
			rep.Lost = append(rep.Lost, st)
			v.meta.Lock()
			v.stats.LostStripes++
			v.meta.Unlock()
			return
		}
		if v.rebuildUnit(ctx, st, dIdx, i, h) != nil {
			rep.Remaining++
			return
		}
		v.eng.ClearStale(i, st)
		v.eng.Commit() // best effort; an image that still calls the unit stale costs a re-heal
	}
	rep.Healed++
	v.meta.Lock()
	v.stats.HealedStripes++
	v.meta.Unlock()
	v.ob.heal.Observe(time.Since(t0))
}

// rebuildUnit reconstructs data unit dIdx of a clean stripe from the
// other data units plus parity and writes it to node. Caller holds the
// stripe lock; h is the stripe's health under it.
func (v *Volume) rebuildUnit(ctx context.Context, st int64, dIdx, node int, h stripeHealth) error {
	if !h.parityRead || slices.ContainsFunc(h.badIdx, func(idx int) bool { return idx != dIdx }) {
		return fmt.Errorf("%w: stripe %d survivors incomplete", ErrNodeDown, st)
	}
	im := v.image(ctx, st)
	defer im.Release()
	if _, err := im.Solve(absent(node), 1, 0, v.geo.StripeUnit); err != nil {
		return err
	}
	return v.nodeWrite(ctx, node, im.Data[dIdx], v.geo.DiskOffset(st))
}

// VerifyParity audits every clean stripe: read all data units plus
// parity and check the XOR. It returns the stripes that fail (bad) and
// the count it could not check (dirty, or nodes down). A non-empty bad
// list means redundancy the marking memory believes exists does not —
// the cluster analogue of afraidsim's torn-parity detection.
func (v *Volume) VerifyParity(ctx context.Context) (bad []int64, skipped int64, err error) {
	var mu sync.Mutex // guards bad and skipped while the sweep runs
	err = nvram.ForEach(ctx, v.opts.Workers, 0, v.geo.Stripes(), func(st int64) error {
		ok, checkErr := v.verifyStripe(ctx, st)
		if ignoreNodeDown(checkErr) != nil {
			return checkErr
		}
		mu.Lock()
		defer mu.Unlock()
		if checkErr != nil {
			skipped++
		} else if !ok {
			bad = append(bad, st)
		}
		return nil
	})
	slices.Sort(bad)
	return bad, skipped, err
}

func (v *Volume) verifyStripe(ctx context.Context, st int64) (ok bool, err error) {
	lk := v.stripeLock(st)
	lk.Lock()
	defer lk.Unlock()
	h := v.health(st)
	if h.dirty || len(h.badIdx) > 0 || !h.parityRead {
		return true, fmt.Errorf("%w: stripe %d unverifiable", ErrNodeDown, st)
	}
	im := v.image(ctx, st)
	defer im.Release()
	if err := im.Load(stripe.Set{}, 1, 0, v.geo.StripeUnit); err != nil {
		return true, err
	}
	return im.Check(), nil
}
