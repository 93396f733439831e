package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"afraid/internal/layout"
	"afraid/internal/nvram"
	"afraid/internal/stripe"
)

// The stripe protocol. Every array organisation the store offers is the
// same mechanism with m = Level.ParityUnits() parity units per stripe:
// m = 0 (RAID 0), m = 1 (RAID 5 / AFRAID) or m = 2 (RAID 6 / AFRAID6,
// the §5 "partial redundancy protection available immediately"
// extension). Each stripe operation therefore exists once: its mechanics —
// the units in memory, their overlapped I/O, solve and encode — are a
// stripe.Image's (internal/stripe), moved through devRead and devWrite,
// and three values decide everything about it here:
//
//   - the failed set — which members the stripe is missing: the absent
//     ones (FailDisk) on every stripe, and one present again — a node
//     back from an outage, a replacement under repair — only where the
//     engine holds the stripe stale on it;
//   - freshness — which parities encode the stripe's at-rest data
//     (freshParities), the one "can this be reconstructed / is this
//     loss" test;
//   - the sync set — which parities a write updates in its
//     read-modify-write, the rest being deferred behind a mark: the
//     first n, for the stripe's sync count n ∈ [0, m] (syncSet).
//
// And one write rule, for every layout that keeps parity: a write makes
// the stripe's mark durable after its reads and before its first device
// write, and once its last device write has left every parity it keeps
// encoding the data, clears — in memory — the mark it set itself. So a
// write the array crashes in always leaves its stripe marked, and a mark
// found at Open vouches for no parity at all. A stripe image rebuilt in
// memory — by the scrubber, a repair, a salvage, a degraded write or a
// unit repair — goes back through one step, writeBack, which applies the
// rule and its twin for members: an absent member whose unit the image
// changes is marked stale there, durably, before the unit is skipped.

// members is the store as a stripe.Image moves units through it: devRead
// and devWrite, so contexts, checksum verification, the member error
// classes and through them fail-stop absorption apply to every unit of
// every stripe operation.
type members Store

func (m *members) ReadUnit(ctx context.Context, d int, p []byte, off int64) error {
	return (*Store)(m).devRead(ctx, d, p, off)
}

func (m *members) WriteUnit(ctx context.Context, d int, p []byte, off int64) error {
	return (*Store)(m).devWrite(ctx, d, p, off)
}

// image returns a pooled image of the stripe, moved under ctx; the caller
// releases it.
func (s *Store) image(ctx context.Context, stripe int64) *stripe.Image {
	return s.arr.Get(ctx, (*members)(s), stripe)
}

// stripeState is the snapshot every stripe operation starts from.
type stripeState struct {
	failed  stripe.Set      // the missing members the solver works around: the absent ones, then those stale here
	absent  stripe.Set      // the absent members: failed's prefix
	missing nvram.MemberSet // every missing member, failed's and any past the code's reach
	over    bool            // more members are missing than the code solves around: failed names only some
	n       uint8           // the sync count
	dirty   bool
	fresh   stripe.Parities
}

func (s *Store) stripeState(stripe int64) stripeState {
	s.meta.Lock()
	st := stripeState{failed: s.failed, absent: s.failed, n: s.sync[stripe]}
	s.meta.Unlock()
	var inherited bool
	var stale nvram.MemberSet
	st.dirty, inherited, stale = s.eng.State(stripe)
	for _, d := range st.failed.List() {
		st.missing |= 1 << d
	}
	for on := stale &^ st.missing; on != 0; on &= on - 1 {
		d := bits.TrailingZeros64(uint64(on))
		st.missing |= 1 << d
		st.over = !st.failed.Add(d, s.maxFailed()) || st.over
	}
	st.fresh = s.freshParities(st.n, st.dirty, inherited)
	return st
}

// touches reports whether the span has an extent on a missing member.
func (st stripeState) touches(sp layout.StripeSpan) bool {
	for _, e := range sp.Extents {
		if st.missing.Has(e.Disk) {
			return true
		}
	}
	return false
}

// tooMany is the error of an operation that needs more of a stripe's
// members than are there.
func tooMany(stripe int64) error {
	return fmt.Errorf("%w: stripe %d has more members missing than parities", ErrTooManyFailures, stripe)
}

// freshParities reports which of a stripe's parities encode its at-rest
// data: all on a clean stripe; on one marked since Open, its sync set —
// every parity at n = m, whose mark only covers writes in flight, P for
// AFRAID6 deferring only Q, nothing at n = 0; and none under a mark found
// at Open, which may stand for a write the crash tore, or standing when
// the stripe's count changed (SetSync).
func (s *Store) freshParities(n uint8, dirty, inherited bool) stripe.Parities {
	switch {
	case inherited:
		return 0
	case dirty:
		return syncSet(n)
	default:
		return s.allPar
	}
}

// FreshParities counts the parities that encode the stripe's at-rest data
// now: how many failed units of it the store can still solve around. A
// crash harness compares it with the units it knows to have failed.
func (s *Store) FreshParities(stripe int64) int {
	return bits.OnesCount(uint(s.stripeState(stripe).fresh))
}

// syncSet is the parities a write to a stripe with sync count n keeps
// current in its read-modify-write: the first n, P then Q. The others are
// deferred to the scrubber behind a mark.
func syncSet(n uint8) stripe.Parities { return stripe.Parities(1)<<n - 1 }

// readSpan reads one stripe's extents, reconstructing around missing
// members when the fresh parities allow. Several extents are on distinct
// members and overlap like any other unit I/O of a stripe: a read of a
// whole stripe costs about one device service time. A single extent of a
// fully redundant stripe is hedged when its member asks for it (hedge.go).
// Caller holds the stripe lock.
func (s *Store) readSpan(ctx context.Context, p []byte, base int64, sp layout.StripeSpan) error {
	st := s.stripeState(sp.Stripe)
	if e := sp.Extents[0]; len(sp.Extents) == 1 && !st.missing.Has(e.Disk) {
		dst := p[e.ArrOff-base : e.ArrOff-base+e.Len]
		if hd := s.hedgeDelay(e.Disk); hd > 0 && st.missing == 0 && s.allPar != 0 && st.fresh == s.allPar {
			return s.hedgedRead(ctx, dst, sp.Stripe, e, hd)
		}
		return s.devRead(ctx, e.Disk, dst, e.DiskOff)
	}
	if st.over && st.touches(sp) {
		return tooMany(sp.Stripe)
	}
	im := s.image(ctx, sp.Stripe)
	defer im.Release()
	solved, err := im.ReadSpan(p, base, sp, st.failed, st.fresh)
	if solved {
		s.meta.Lock()
		s.stats.DegradedReads++
		s.meta.Unlock()
	}
	return err
}

// writeSpan applies one stripe's worth of a write under the stripe lock,
// by the write rule (top of file). A layout with no parity keeps no mark:
// its extents are bare writes, and a missing member's are lost. Otherwise a
// span that carries every data unit of a healthy stripe is a full-stripe
// write (writeImage), and the rest read-modify-write the stripe's sync set
// (rmwSpan) — so does a span around missing members that keeps no parity
// in sync and loses nothing by deferring (defers). The others write over
// the image solved around the missing members (writeImage).
func (s *Store) writeSpan(ctx context.Context, p []byte, base int64, sp layout.StripeSpan) error {
	st := s.stripeState(sp.Stripe)
	switch {
	case s.allPar == 0:
		for _, e := range sp.Extents {
			if st.missing.Has(e.Disk) {
				return fmt.Errorf("%w: stripe %d", ErrDataLoss, sp.Stripe)
			}
			if err := s.devWrite(ctx, e.Disk, p[e.ArrOff-base:e.ArrOff-base+e.Len], e.DiskOff); err != nil {
				return err
			}
		}
		return nil
	case st.missing == 0 && sp.FullStripe(s.geo):
		// The full-stripe write: writeImage below, with nothing to load.
	case st.missing == 0 || (st.n == 0 && s.defers(sp, st)):
		return s.rmwSpan(ctx, p, base, sp, st)
	case st.over:
		return tooMany(sp.Stripe)
	}
	// Degraded operation: with a member gone, deferring parity would turn
	// the next failure into certain loss, so the array maintains every
	// surviving parity synchronously (and through them the contents of the
	// missing units).
	err := s.writeImage(ctx, st, p, base, sp)
	if err == nil && st.missing == 0 {
		s.ob.fullStripe.Inc()
	} else if err == nil {
		s.meta.Lock()
		s.stats.DegradedWrites++
		s.meta.Unlock()
	}
	return err
}

// defers reports whether a span of a stripe with members missing defers
// its parities as on a healthy stripe: it writes no missing unit, and no
// parity left behind by the deferral still protects the stripe — every
// fresh parity is on a missing member (on a marked stripe none is fresh).
func (s *Store) defers(sp layout.StripeSpan, st stripeState) bool {
	if st.touches(sp) {
		return false
	}
	for j, d := range [2]int{s.geo.ParityDisk(sp.Stripe), s.geo.QDisk(sp.Stripe)} {
		if st.fresh.Has(j) && !st.missing.Has(d) {
			return false
		}
	}
	return true
}

// rmwSpan writes a partial span of a stripe. Its reads come first: with a
// sync set, the old bytes of its extents and the sync parities' over their
// range, the delta folded in memory (Image.Update); with none (AFRAID),
// only the old contents under partial extents, verified where no parity
// stays fresh across the mark (preflightChecksums) — a corruption found
// after the write's own mark would read as loss. Then the mark, which also
// lifts a quarantine (the write may replace the corrupt unit), then the
// writes, every one attempted even after one fails: a member that
// fail-stops takes only its own unit, and the survivors encode the new data
// for the degraded retry. A mark that defers parities stands for the
// scrubber; one a fully synchronous write set on a clean stripe is cleared
// when the write has landed. A failed write leaves its mark standing, so
// the scrubber re-encodes the stripe from what landed. Caller holds the
// stripe lock.
func (s *Store) rmwSpan(ctx context.Context, p []byte, base int64, sp layout.StripeSpan, st stripeState) error {
	sync := syncSet(st.n)
	if sync == 0 {
		if err := s.preflightChecksums(sp); err != nil {
			return err
		}
		if err := s.eng.Mark(sp.Stripe); err != nil {
			return err
		}
		for k, e := range sp.Extents {
			src := p[e.ArrOff-base : e.ArrOff-base+e.Len]
			err := s.devWrite(ctx, e.Disk, src, e.DiskOff)
			if err != nil && k == 0 && !st.dirty && errors.As(err, new(*UnitError)) && st.failed.Add(e.Disk, s.maxFailed()) {
				// The member lost the unit, and nothing of the stripe has
				// changed since its parities last encoded it: store the span
				// over the image solved around the unit.
				return s.writeImage(ctx, st, p, base, sp)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	im := s.image(ctx, sp.Stripe)
	defer im.Release()
	if err := im.Update(p, base, sp, sync); err != nil {
		return err
	}
	if err := s.eng.Mark(sp.Stripe); err != nil {
		return err
	}
	if err := im.Store(stripe.Set{}); err != nil {
		return err
	}
	if sync == s.allPar && !st.dirty {
		s.eng.Clear(sp.Stripe)
	}
	return nil
}

// writeImage writes sp over the image of its stripe solved around st's
// missing members (writeBack); with no extents it rebuilds the stripe: a
// scrub's parities, a repair's stale units, a unit repair's bad ones. A
// span that carries every data unit whole loads nothing — on a healthy
// stripe, the full-stripe write: its parities are encoded straight from the
// caller's buffer, with no small-update penalty to defer. One that
// overwrites whole every missing data unit loads only the others, and with
// that no fresh parity: it succeeds, and heals the stripe, where the old
// contents are already lost. Caller holds the stripe lock.
func (s *Store) writeImage(ctx context.Context, st stripeState, p []byte, base int64, sp layout.StripeSpan) error {
	im := s.image(ctx, sp.Stripe)
	defer im.Release()
	var err error
	switch {
	case sp.FullStripe(s.geo):
	case s.covers(sp, st.failed):
		err = im.Load(st.failed, 0, 0, s.geo.StripeUnit)
	default:
		_, err = im.Solve(st.failed, st.fresh, 0, s.geo.StripeUnit)
	}
	if err != nil {
		return err
	}
	return s.writeBack(im, st, p, base, sp)
}

// covers reports whether the span overwrites whole every data unit on a
// member in missing.
func (s *Store) covers(sp layout.StripeSpan, missing stripe.Set) bool {
	for _, d := range missing.List() {
		role, idx := s.geo.RoleOf(sp.Stripe, d)
		whole := role != layout.Data
		for _, e := range sp.Extents {
			whole = whole || (e.DataIdx == idx && e.Len == s.geo.StripeUnit)
		}
		if !whole {
			return false
		}
	}
	return true
}

// writeBack is the one way a stripe image rebuilt in memory goes back to
// the members. The image was loaded or solved whole under st; sp's extents
// are laid over it — p's bytes, or zeroes where p is nil (a salvage) — its
// parities are recomputed, and Store writes exactly the units that may
// differ from what their members hold: not the data units it read, nor the
// parities the solve used while nothing was laid over. Its rules:
//
//   - mark first: with bytes laid over, the stripe is marked durably first;
//   - stale first: an absent member whose unit changes (changes) is marked
//     stale there, durably, before the unit is skipped;
//   - clear stale: a present member stale here received its unit (counted
//     in Stats.RecoveredStripes unless salvaged);
//   - clear the mark: every parity now encodes the data on every member not
//     stale, so a mark found in st or set here is cleared — durably if set
//     here around missing members, so that a mark found at Open on a
//     degraded array costs their units, not a rebuild. The scrubber's mark
//     is the engine's to clear, and a unit repair keeps the mark it finds;
//   - failures: a member that fail-stops while laid-over bytes are stored
//     around missing members is absorbed and the image in hand stored again
//     around it, as the half written stripe no longer solves. Otherwise the
//     caller absorbs it and starts over: with nothing laid over the members
//     still hold what the image was solved from, and a healthy stripe's
//     span decides afresh how to write around the member (it may defer).
//
// Caller holds the stripe lock.
func (s *Store) writeBack(im *stripe.Image, st stripeState, p []byte, base int64, sp layout.StripeSpan) error {
	overlay := len(sp.Extents) > 0
	marks := overlay && s.allPar != 0
	if marks {
		if err := s.eng.Mark(im.Stripe); err != nil {
			return err
		}
	}
	im.Encode(p, base, sp)
	absent := st.absent
	for tries := 0; ; tries++ {
		for _, d := range absent.List() {
			if changes(im, st, sp, d) {
				if err := s.eng.MarkStale(d, im.Stripe, im.Stripe+1); err != nil {
					return err
				}
			}
		}
		err := im.Store(absent)
		if err == nil {
			break
		}
		if !overlay || st.missing == 0 || tries >= s.spanRetryBudget() || !s.absorbFailure(err) {
			return err
		}
		s.meta.Lock()
		absent = s.failed
		s.meta.Unlock()
	}
	for on := st.missing; on != 0; on &= on - 1 {
		if d := bits.TrailingZeros64(uint64(on)); !absent.Has(d) && s.eng.ClearStale(d, im.Stripe) && (p != nil || !overlay) {
			s.meta.Lock()
			s.stats.RecoveredStripes++
			s.meta.Unlock()
		}
	}
	if overlay || st.dirty {
		s.eng.Clear(im.Stripe)
	}
	if marks && st.missing != 0 {
		return s.eng.Commit()
	}
	return nil
}

// changes reports whether member d's unit, as writeBack stores it, may
// differ from what d holds: new data, or a parity over new data or stale.
func changes(im *stripe.Image, st stripeState, sp layout.StripeSpan, d int) bool {
	i, k := im.Slot(d), len(im.Data)
	if i >= k {
		return len(sp.Extents) > 0 || !st.fresh.Has(i-k)
	}
	return slices.ContainsFunc(sp.Extents, func(e layout.Extent) bool { return e.DataIdx == i })
}

// repairUnit rewrites one unit that failed verification or that its
// member reported lost, from redundancy. The unit joins the missing
// members in a set; a nested unit error met while reconstructing joins it
// too, and the solve decides whether the fresh parities still cover the
// set. More missing members than the stripe has parities — a dead member
// plus a bad unit on RAID 5, a third casualty on RAID 6, anything at all on
// RAID 0 — is reported loss, as is a bad data unit under stale parity. The
// solved image goes back (writeImage): the bad units, any unit stale on a
// present member, and the parities the solve did not use, recomputed from
// the data — so a dirty stripe ends redundant, though it keeps its mark.
// Caller holds the stripe lock; the unit is read again first, so a retry
// that lost a race with another repair (CheckParity workers drop the lock
// between check and repair) is a no-op.
func (s *Store) repairUnit(ctx context.Context, ue *UnitError) error {
	if err := s.verifyUnit(ue.Disk, ue.Stripe); err == nil {
		return nil
	} else if !errors.As(err, new(*UnitError)) {
		return err
	}
	st := s.stripeState(ue.Stripe)
	if st.over {
		return unitLossError(ue)
	}
	st.dirty = false // the span that set the mark clears it, or the drain that claims it
	for bad := ue.Disk; ; {
		if !st.failed.Add(bad, s.geo.Level.ParityUnits()) {
			return unitLossError(ue)
		}
		err := s.writeImage(ctx, st, nil, 0, layout.StripeSpan{Stripe: ue.Stripe})
		var nested *UnitError
		if !errors.As(err, &nested) {
			if errors.Is(err, ErrDataLoss) {
				return unitLossError(ue)
			}
			return err
		}
		bad = nested.Disk
	}
}
