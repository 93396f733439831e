package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"afraid/internal/layout"
	"afraid/internal/nvram"
	"afraid/internal/stripe"
)

// scrubOne is the store's half of the deferred-redundancy engine
// (internal/nvram): make one dirty stripe redundant — read all data
// units, and write back the image (writeImage), which writes every parity,
// even one the mode maintains synchronously: a marked stripe may carry a
// torn synchronous P from a write interrupted by a crash, and unmarking it
// with that stale P in place would plant latent corruption. Every drain
// runs it — the idle
// scrubber, the pressure valve, Flush and ParityPoint — and the engine
// unmarks the stripe when it reports Done. The stripe lock is held from
// the engine's go-ahead to the last parity write, so a write that
// re-dirties the stripe serializes after the rebuild and its mark
// survives. A stripe a present member is stale on is skipped: its repair
// rebuilds it.
func (s *Store) scrubOne(ctx context.Context, c nvram.Claim) (nvram.Outcome, error) {
	s.meta.Lock()
	closed, degraded := s.closed, s.failed.Len() > 0
	s.meta.Unlock()
	if closed {
		return nvram.Skip, ErrClosed
	}
	if degraded {
		return nvram.Skip, s.errDegraded()
	}
	start := s.opts.now()
	lk := s.stripeLock(c.Unit)
	lk.Lock()
	defer lk.Unlock()
	if !c.Proceed() {
		return nvram.Skip, nil
	}
	if _, _, stale := s.eng.State(c.Unit); stale != 0 {
		return nvram.Skip, nil
	}
	// No member is missing, and the mark is the engine's to clear.
	err := s.repairing(ctx, func() error { return s.writeImage(ctx, stripeState{}, nil, 0, layout.StripeSpan{Stripe: c.Unit}) })
	switch {
	case err == nil:
		s.ob.scrubStripe.Observe(s.opts.now().Sub(start))
		return nvram.Done, nil
	case s.absorbFailure(err):
		// A member failed under the reads: the store is now degraded. The
		// stripe keeps its mark.
		return nvram.Skip, s.errDegraded()
	case errors.Is(err, ErrDataLoss):
		// Detected corruption this stripe's stale parity cannot undo:
		// quarantine it — kept dirty (rebuilding parity would bless the
		// corrupt unit), skipped by the drains so Flush terminates with a
		// loss report instead of livelocking, reads report loss — until a
		// write marks it again.
		return nvram.Hold, nil
	default:
		return nvram.Skip, err
	}
}

// errDegraded is why no stripe can be made redundant with a member
// absent — parity cannot be rebuilt over a missing disk; RepairDisk will.
// It is an error, not a Skip, because it is the array's trouble and not
// the stripe's: the drain that met it stops, so scrubbing pauses until
// the repair instead of asking again for every dirty stripe. A requested
// drain that skipped stripes a present member is stale on says so too.
func (s *Store) errDegraded() error {
	return fmt.Errorf("core: cannot rebuild parity with disks %v failed: %w", s.DeadDisks(), ErrTooManyFailures)
}

// Flush synchronously rebuilds parity for every dirty stripe — the
// whole-array parity point. After a successful Flush the store is fully
// redundant.
func (s *Store) Flush() error {
	return s.FlushContext(context.Background())
}

// FlushContext is Flush with cancellation, checked between stripes.
// Stripes scrubbed before cancellation stay redundant. With more than
// one scrub worker configured, dirty stripes are drained concurrently:
// each worker claims a distinct stripe and rebuilds it under its stripe
// lock, so the per-disk reads of several rebuilds overlap. Flush drains
// regardless of foreground I/O, or concurrent writers could starve it
// forever; stripes they re-dirty get another round.
func (s *Store) FlushContext(ctx context.Context) error {
	if s.allPar == 0 {
		return nil
	}
	if err := s.checkRange(0, 0); err != nil { // ErrClosed after Close
		return err
	}
	res, err := s.eng.DrainAll(ctx)
	if err != nil {
		return err
	}
	return s.drainErr(res)
}

// QuarantinedStripes returns the stripes held dirty by unrecoverable unit
// loss (a checksum mismatch or a member's reported loss), ascending:
// scrubOne put them on hold in the engine. They read as ErrDataLoss until
// overwritten.
func (s *Store) QuarantinedStripes() []int64 { return s.eng.Held() }

// drainErr reports the stripes a requested drain had to leave marked: in
// quarantine, as rebuilding their parity would seal detected corruption in;
// or skipped, as a member is stale on them. The store cannot be made fully
// redundant and says so.
func (s *Store) drainErr(res nvram.DrainResult) error {
	switch {
	case len(res.Held) > 0:
		return fmt.Errorf("%w: %d stripe(s) %v held dirty by unrecoverable unit loss (a checksum mismatch or a member's reported loss)", ErrDataLoss, len(res.Held), res.Held)
	case res.Skipped > 0:
		return s.errDegraded()
	}
	return nil
}

// ParityPoint makes the stripes covering [off, off+length) redundant
// now — the §5 "commit" operation, analogous to the paritypoints of
// Cormen & Kotz. It returns once their parity is consistent.
func (s *Store) ParityPoint(off, length int64) error {
	return s.ParityPointContext(context.Background(), off, length)
}

// ParityPointContext is ParityPoint with cancellation, checked between
// stripes. Multi-stripe ranges are drained by a pool of scrub workers; a
// single-stripe range (or a width of 1) runs inline on the caller's
// goroutine, so the common "commit this record" case spawns nothing.
func (s *Store) ParityPointContext(ctx context.Context, off, length int64) error {
	if err := s.checkRange(off, length); err != nil {
		return err
	}
	if length == 0 || s.allPar == 0 {
		return nil
	}
	first := off / s.geo.StripeDataBytes()
	last := (off + length - 1) / s.geo.StripeDataBytes()
	res, err := s.eng.DrainRange(ctx, first, last+1)
	if err != nil {
		return err
	}
	return s.drainErr(res)
}

// CheckParity verifies every stripe's parity against its data and
// returns the stripes that are inconsistent, in ascending order. On a
// healthy AFRAID store the result is exactly the set of dirty stripes;
// after Flush it is empty. RAID 0 stores trivially verify. Stripes are
// checked by a pool of scrub workers, each stripe in a pooled image.
func (s *Store) CheckParity() ([]int64, error) {
	bad, _, err := s.audit(context.Background(), false)
	return bad, err
}

// VerifyParity is CheckParity over the stripes the store vouches for:
// unmarked, with every member present and current. The others are counted
// in skipped, and so is a stripe whose member fails under the audit, which
// absorbs the failure. A stripe it returns is redundancy the marking
// memory believes in that is not there.
func (s *Store) VerifyParity(ctx context.Context) (bad []int64, skipped int64, err error) {
	return s.audit(ctx, true)
}

// audit checks the stripes' parity, all of them or (vouched) those
// VerifyParity checks.
func (s *Store) audit(ctx context.Context, vouched bool) (bad []int64, skipped int64, err error) {
	if s.allPar == 0 {
		return nil, 0, nil
	}
	var mu sync.Mutex // guards bad and skipped while the workers run
	err = nvram.ForEach(ctx, s.scrubWorkers(), 0, s.geo.Stripes(), func(n int64) error {
		im := s.image(ctx, n)
		defer im.Release()
		lk := s.stripeLock(n)
		lk.Lock()
		st := s.stripeState(n)
		skip := vouched && (st.dirty || st.missing != 0)
		var err error
		if !skip {
			err = s.repairing(ctx, func() error {
				return im.Load(stripe.Set{}, s.allPar, 0, s.geo.StripeUnit)
			})
			skip = vouched && s.absorbFailure(err)
		}
		lk.Unlock()
		switch {
		case skip:
			mu.Lock()
			skipped++
			mu.Unlock()
		case errors.Is(err, ErrDataLoss) || (err == nil && !im.Check()):
			// Corruption beyond redundancy makes the stripe inconsistent by
			// definition: report it in the result rather than failing the
			// whole audit.
			mu.Lock()
			bad = append(bad, n)
			mu.Unlock()
		case err != nil:
			return err
		}
		return nil
	})
	if err != nil {
		return nil, skipped, err
	}
	slices.Sort(bad)
	return bad, skipped, nil
}
