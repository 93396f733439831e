package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"afraid/internal/bufpool"
	"afraid/internal/layout"
	"afraid/internal/nvram"
	"afraid/internal/parity"
)

// degradedReadExtent reconstructs the bytes of one extent whose home
// node is absent: the same sub-range of every surviving data unit plus
// the parity unit, XORed together. Caller holds the stripe lock and has
// verified the stripe is clean with exactly one absent data unit.
func (v *Volume) degradedReadExtent(ctx context.Context, dst []byte, st int64, e layout.Extent) error {
	n := v.geo.DataDisks()
	srcs := make([][]byte, 0, n) // n-1 survivors + parity
	defer func() {
		for _, b := range srcs {
			bufpool.Put(b)
		}
	}()
	type job struct {
		node int
		buf  []byte
	}
	jobs := make([]job, 0, n)
	for idx := 0; idx < n; idx++ {
		if idx == e.DataIdx {
			continue
		}
		b := bufpool.Get(int(e.Len))
		srcs = append(srcs, b)
		jobs = append(jobs, job{v.geo.DataDisk(st, idx), b})
	}
	pbuf := bufpool.Get(int(e.Len))
	srcs = append(srcs, pbuf)
	jobs = append(jobs, job{v.geo.ParityDisk(st), pbuf})

	off := v.geo.DiskOffset(st) + e.UnitOff
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			errs[i] = v.nodeRead(ctx, j.node, j.buf, off)
		}(i, j)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return err
	}
	parity.Reconstruct(dst, pbuf, srcs[:len(srcs)-1]...)
	return nil
}

// readUnits fills units[idx] (full stripe units) for every non-nil
// entry from the stripe's data nodes, concurrently.
func (v *Volume) readUnits(ctx context.Context, st int64, units [][]byte) error {
	off := v.geo.DiskOffset(st)
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for idx, buf := range units {
		if buf == nil {
			continue
		}
		wg.Add(1)
		go func(idx int, buf []byte) {
			defer wg.Done()
			errs[idx] = v.nodeRead(ctx, v.geo.DataDisk(st, idx), buf, off)
		}(idx, buf)
	}
	wg.Wait()
	return firstError(errs)
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
// guarantees it) and the unit is reconstructed from parity.
func (v *Volume) writeSpanDegraded(ctx context.Context, p []byte, base int64, sp layout.StripeSpan, bIdx int, coversB, wasDirty bool) error {
	st := sp.Stripe
	n := v.geo.DataDisks()
	unit := int(v.geo.StripeUnit)

	v.meta.Lock()
	parityReadable := v.availLocked(v.geo.ParityDisk(st), st)
	bm := v.nodes[v.geo.DataDisk(st, bIdx)]
	bReachable := bm.state == StateUp && bm.node != nil // up but stale here
	v.meta.Unlock()
	if !coversB && !parityReadable {
		// Reconstructing the absent unit needs a valid parity unit;
		// without one this stripe is short two units.
		return fmt.Errorf("%w: stripe %d parity unavailable", ErrTooManyNodes, st)
	}

	units := make([][]byte, n)
	for idx := range units {
		units[idx] = bufpool.Get(unit)
	}
	pbuf := bufpool.Get(unit)
	defer func() {
		for _, b := range units {
			bufpool.Put(b)
		}
		bufpool.Put(pbuf)
	}()

	// Phase 1: assemble the current image. Survivor units come from
	// their nodes; the absent unit from parity (unless fully covered).
	toRead := make([][]byte, n)
	for idx := 0; idx < n; idx++ {
		if idx != bIdx {
			toRead[idx] = units[idx]
		}
	}
	if err := v.readUnits(ctx, st, toRead); err != nil {
		return err
	}
	if !coversB {
		if err := v.nodeRead(ctx, v.geo.ParityDisk(st), pbuf, v.geo.DiskOffset(st)); err != nil {
			return err
		}
		survivors := make([][]byte, 0, n-1)
		for idx := 0; idx < n; idx++ {
			if idx != bIdx {
				survivors = append(survivors, units[idx])
			}
		}
		parity.Reconstruct(units[bIdx], pbuf, survivors...)
	}

	// Record the exposure before mutating remote state: a crash between
	// here and the unmark below re-runs as a parity rebuild (or an
	// honest loss report if the absent node is lost for good).
	if err := v.eng.Mark(st); err != nil {
		return err
	}

	// Phase 2: apply the span and recompute parity over the new image.
	touched := make([]bool, n)
	for _, e := range sp.Extents {
		copy(units[e.DataIdx][e.UnitOff:e.UnitOff+e.Len], p[e.ArrOff-base:e.ArrOff-base+e.Len])
		touched[e.DataIdx] = true
	}
	parity.Compute(pbuf, units...)

	// Phase 3: write touched units and parity. The absent unit is
	// written only when its node is reachable (healing); otherwise its
	// new contents live in parity and the unit is marked stale.
	type wjob struct {
		node int
		buf  []byte
	}
	var jobs []wjob
	for idx := 0; idx < n; idx++ {
		if idx == bIdx {
			if bReachable {
				jobs = append(jobs, wjob{v.geo.DataDisk(st, idx), units[idx]})
			}
			continue
		}
		if touched[idx] {
			jobs = append(jobs, wjob{v.geo.DataDisk(st, idx), units[idx]})
		}
	}
	pNode := v.geo.ParityDisk(st)
	jobs = append(jobs, wjob{pNode, pbuf})
	off := v.geo.DiskOffset(st)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j wjob) {
			defer wg.Done()
			errs[i] = v.nodeWrite(ctx, j.node, j.buf, off)
		}(i, j)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return err
	}

	// Phase 4: the stripe is redundant again. Settle the marks — the stale
	// maps first, so no image shows the stripe clean beside a stale map
	// that still trusts the absent unit (see composeMarks).
	bNode := v.geo.DataDisk(st, bIdx)
	v.meta.Lock()
	v.nodes[pNode].stale.Unmark(st) // parity unit just rewritten
	if bReachable {
		v.nodes[bNode].stale.Unmark(st) // full unit just rewritten
	} else if touched[bIdx] {
		// New bytes for the absent unit exist only in parity; the
		// physical unit must be rebuilt before the node is trusted.
		v.nodes[bNode].stale.Mark(st)
	}
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
	units := make([][]byte, v.geo.DataDisks())
	for idx := range units {
		units[idx] = bufpool.Get(int(v.geo.StripeUnit))
	}
	pbuf := bufpool.Get(int(v.geo.StripeUnit))
	defer func() {
		for _, b := range units {
			bufpool.Put(b)
		}
		bufpool.Put(pbuf)
	}()
	if err := v.readUnits(ctx, st, units); err != nil {
		return err
	}
	parity.Compute(pbuf, units...)
	pNode := v.geo.ParityDisk(st)
	if err := v.nodeWrite(ctx, pNode, pbuf, v.geo.DiskOffset(st)); err != nil {
		return err
	}
	v.meta.Lock()
	v.nodes[pNode].stale.Unmark(st)
	v.meta.Unlock()
	return nil
}
