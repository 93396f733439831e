package cluster

import (
	"context"
	"fmt"

	"afraid/internal/core"
)

// HealReport summarises one heal sweep.
type HealReport struct {
	Healed int64 // stripe units rebuilt onto the node
	// Lost lists the stripes whose unit on the node was unrecoverable —
	// unredundant (dirty) when the node went down. The store zeroed those
	// units and made the stripes redundant again: loss is always reported.
	Lost []int64
	// Remaining counts the node's stripes still stale: ones that need
	// another node that is down, or that a cut-short sweep did not reach.
	Remaining int64
}

// HealNode brings node i back into the volume: redial it if it is down
// (Member.Dial), then have the store rebuild exactly the units it missed —
// its stale map. full is the "replaced with a blank machine" case: the
// node is failed and handed to the store as a replacement, stale on every
// unit, durably, so reads go around it until the heal has rebuilt each
// one, across a restart of the volume too. Safe while the volume serves
// I/O.
func (v *Volume) HealNode(ctx context.Context, i int, full bool) (HealReport, error) {
	if i < 0 || i >= len(v.nodes) {
		return HealReport{}, fmt.Errorf("cluster: no node %d", i)
	}
	// An explicit heal is an administrative act of trust: lift any flap
	// quarantine and forget the flap history. The prober's auto-heals leave
	// the history alone; that is what lets the damper count a flapping
	// node's cycles at all.
	v.meta.Lock()
	v.clearQuarantineLocked(v.nodes[i])
	v.meta.Unlock()
	return v.healNode(ctx, i, full, true)
}

// healNode is HealNode without the administrative quarantine reset. A heal
// that does not salvage (the prober's, which has nobody to report to)
// leaves a lost unit stale, reading as lost, for HealNode to report.
func (v *Volume) healNode(ctx context.Context, i int, full, salvage bool) (HealReport, error) {
	m := v.nodes[i]
	if full && v.st.FailDisk(i) != nil {
		m.Fail()
	}
	if err := v.redialNode(i); err != nil {
		return HealReport{}, err
	}
	v.meta.Lock()
	if full {
		m.dev = &fresh{m} // a new pointer each time: never the device in the slot
	}
	dev := m.dev
	v.meta.Unlock()
	before := v.st.Stats().RecoveredStripes
	var damage core.DamageReport
	var err error
	if salvage {
		damage, err = v.st.RepairDiskContext(ctx, i, dev)
	} else {
		err = v.st.RebuildDisk(ctx, i, dev)
	}
	rep := HealReport{
		Healed:    int64(v.st.Stats().RecoveredStripes - before),
		Remaining: v.st.Engine().StaleCount(i),
	}
	for _, d := range damage.Lost { // ascending, one per unit
		if n := len(rep.Lost); n == 0 || rep.Lost[n-1] != d.Stripe {
			rep.Lost = append(rep.Lost, d.Stripe)
		}
	}
	if err != nil {
		return rep, v.volumeErr(err)
	}
	v.meta.Lock()
	if m.node != nil {
		m.consecFails = 0 // clean sweep: the node earned its record back
	}
	v.meta.Unlock()
	return rep, nil
}

// redialNode dials a down member, sanity-checks the connection, and
// promotes it to up under a fresh generation. It rebuilds nothing.
func (v *Volume) redialNode(i int) error {
	m := v.nodes[i]
	if _, _, up := m.conn(); up {
		return nil
	}
	if m.dial == nil {
		return fmt.Errorf("%w: node %d has no dialer", ErrNodeDown, i)
	}
	n, err := m.dial()
	if err != nil {
		return fmt.Errorf("cluster: redial node %d: %w", i, err)
	}
	if c := n.Capacity(); c < v.size {
		n.Close()
		return fmt.Errorf("cluster: node %d shrank: capacity %d < %d", i, c, v.size)
	}
	v.meta.Lock()
	closed, surplus := v.bgCtx.Err() != nil, m.node != nil // surplus: another redial won
	if !closed && !surplus {
		m.node, m.lastErr = n, nil
		m.gen++
	}
	v.meta.Unlock()
	if closed || surplus {
		n.Close()
		if closed {
			return ErrClosed
		}
		return nil
	}
	v.logf("cluster: node %d (%s) redialed", i, m.addr)
	return nil
}
