package cluster

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Span retries back off from retryBase, doubling with jitter up to
// retryMaxBackoff.
const (
	retryBase       = 2 * time.Millisecond
	retryMaxBackoff = 250 * time.Millisecond
)

// retrySpan runs one span attempt under its stripe lock, retrying while
// the failure is a node demotion (ErrNodeDown). A demotion changes the
// routing — the next attempt reads degraded or writes under the
// synchronous protocol — so the first retry is immediate; later retries
// back off exponentially with jitter, because repeated ErrNodeDown
// inside one span means the cluster is churning (a redial raced a
// failure, a second node is going) and hammering it helps nobody. One
// retry per node and one over bounds the spin.
func (v *Volume) retrySpan(ctx context.Context, fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil || !errors.Is(err, ErrNodeDown) {
			return err
		}
		if attempt > len(v.nodes) {
			v.meta.Lock()
			v.stats.RetriesExhausted++
			v.meta.Unlock()
			return err
		}
		v.meta.Lock()
		v.stats.Retries++
		v.meta.Unlock()
		if attempt == 0 {
			continue
		}
		d := backoff(attempt)
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-v.stop:
			t.Stop()
			return ErrClosed
		case <-t.C:
		}
	}
}

// backoff returns the sleep before retry `attempt` (attempt >= 1):
// retryBase doubling per attempt, capped at retryMaxBackoff, with equal
// jitter (half fixed, half uniform) so concurrent spans retrying after
// the same demotion do not stampede in phase.
func backoff(attempt int) time.Duration {
	d := retryMaxBackoff
	if shift := attempt - 1; shift < 20 { // past there the cap always wins
		d = min(retryBase<<shift, retryMaxBackoff)
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}
