package cluster

import (
	"context"
	"errors"
	"fmt"

	"afraid/internal/nvram"
)

// ignoreNodeDown absorbs a node failure observed during background
// parity work: the node is already demoted, the stripe stays dirty, and
// a later drain (post-heal) retries. Anything else is a real error.
func ignoreNodeDown(err error) error {
	if errors.Is(err, ErrNodeDown) {
		return nil
	}
	return err
}

// Flush drains every dirty stripe (Workers at a time) and then flushes
// each reachable node so its own array settles too. If stripes cannot
// be drained because nodes they need are down, Flush returns
// ErrDegraded and leaves them marked — the exposure is preserved, not
// forgotten.
func (v *Volume) Flush(ctx context.Context) error {
	v.meta.Lock()
	closed := v.closed
	v.meta.Unlock()
	if closed {
		return ErrClosed
	}
	res, err := v.eng.DrainAll(ctx)
	if err != nil {
		return err
	}
	if err := degraded(res); err != nil {
		return err
	}
	return v.flushNodes(ctx)
}

// degraded reports the stripes a requested drain had to skip.
func degraded(res nvram.DrainResult) error {
	if res.Skipped > 0 {
		return fmt.Errorf("%w: %d stripes", ErrDegraded, res.Skipped)
	}
	return nil
}

// flushNodes asks each reachable node to settle its own store.
func (v *Volume) flushNodes(ctx context.Context) error {
	var firstErr error
	for i := range v.nodes {
		n, gen, err := v.grab(i)
		if err != nil {
			continue // down node: nothing to flush there
		}
		cctx, cancel := v.nodeCtx(ctx)
		err = n.Flush(cctx)
		cancel()
		if err = v.classify(ctx, i, gen, err); err != nil && firstErr == nil && !errors.Is(err, ErrNodeDown) {
			firstErr = err
		}
	}
	return firstErr
}

// ParityPoint establishes a parity point over [off, off+length): on
// return every stripe overlapping the range is redundant, the cluster
// analogue of core.Store.ParityPoint. Stripes that cannot be drained
// (down nodes) yield ErrDegraded.
func (v *Volume) ParityPoint(ctx context.Context, off, length int64) error {
	if err := v.checkRange(off, length); err != nil {
		return err
	}
	if length == 0 {
		return nil
	}
	sdb := v.geo.StripeDataBytes()
	res, err := v.eng.DrainRange(ctx, off/sdb, (off+length-1)/sdb+1)
	if err != nil {
		return err
	}
	return degraded(res)
}
