package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

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
// found at Open vouches for no parity at all. Its twin for members: a write
// that stores a stripe around an absent member marks the member stale
// there, durably, before its first device write.

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
	missing nvram.MemberSet // every missing member, failed's and any past the code's reach
	over    bool            // more members are missing than the code solves around: failed names only some
	n       uint8           // the sync count
	dirty   bool
	fresh   stripe.Parities
}

func (s *Store) stripeState(stripe int64) stripeState {
	s.meta.Lock()
	st := stripeState{failed: s.failed, n: s.sync[stripe]}
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
// span that carries every data unit of a whole stripe is a full-stripe
// write, and the rest read-modify-write the stripe's sync set (rmwSpan) —
// so does a span around missing members that keeps no parity in sync and
// loses nothing by deferring (defers). The others store the whole image
// around the missing members (writeSpanDegraded).
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
		return s.writeFullStripe(ctx, p, base, sp)
	case st.missing == 0 || (st.n == 0 && s.defers(sp, st)):
		return s.rmwSpan(ctx, p, base, sp, st)
	case st.over:
		return tooMany(sp.Stripe)
	}
	// Degraded operation: with a member gone, deferring parity would turn
	// the next failure into certain loss, so the array maintains every
	// surviving parity synchronously (and through them the contents of the
	// missing units).
	return s.writeSpanDegraded(ctx, p, base, sp, st)
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

// writeFullStripe writes a span that carries every data unit of a
// healthy stripe whole. Its parities are a function of the bytes in hand,
// so there is no small-update penalty to defer: they are encoded straight
// from the caller's buffer, and the data and parity units go to their
// disks together (Image.WriteFull). Nothing is read, so the mark comes
// first — interrupted, the write leaves the stripe marked, as any other
// would — and the stripe ends redundant whatever it was before: the mark,
// this write's or an older one, is cleared in memory when the last unit
// has landed, and the NVRAM image catches up at its next store (a mark
// left there by a crash costs one spurious rebuild). Caller holds the
// stripe lock.
func (s *Store) writeFullStripe(ctx context.Context, p []byte, base int64, sp layout.StripeSpan) error {
	if err := s.eng.Mark(sp.Stripe); err != nil {
		return err
	}
	im := s.image(ctx, sp.Stripe)
	defer im.Release()
	if err := im.WriteFull(p, base, sp); err != nil {
		return err
	}
	s.ob.fullStripe.Inc()
	s.eng.Clear(sp.Stripe)
	return nil
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
			if err != nil && k == 0 && !st.dirty && errors.As(err, new(*UnitError)) {
				// The member lost the unit, and nothing of the stripe has
				// changed since its parities last encoded it: solve the unit,
				// lay the extent over it and write it whole.
				err = s.rewriteUnit(ctx, sp.Stripe, e, src, st)
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

// rewriteUnit writes extent e's unit whole — its bytes from src, the rest
// solved from the stripe's fresh parities as st had them — where its member
// reported the unit lost. Caller holds the stripe lock.
func (s *Store) rewriteUnit(ctx context.Context, stripe int64, e layout.Extent, src []byte, st stripeState) error {
	missing := st.failed
	if !missing.Add(e.Disk, s.maxFailed()) {
		return fmt.Errorf("%w: stripe %d", ErrDataLoss, stripe)
	}
	im := s.image(ctx, stripe)
	defer im.Release()
	if _, err := im.Solve(missing, st.fresh, 0, s.geo.StripeUnit); err != nil {
		return err
	}
	u := im.Data[e.DataIdx]
	copy(u[e.UnitOff:], src)
	return s.devWrite(ctx, e.Disk, u, s.geo.DiskOffset(stripe))
}

// writeSpanDegraded rewrites the whole stripe image around the missing
// members: reconstruct, apply the new data, recompute the parities, write
// the other units. A span that overwrites whole every missing data unit
// needs none of their contents, so it loads only the others — and with
// that no fresh parity: such a write succeeds, and heals the stripe, where
// the old contents are already lost; one that carries the whole data image
// loads nothing. Caller holds the stripe lock.
func (s *Store) writeSpanDegraded(ctx context.Context, p []byte, base int64, sp layout.StripeSpan, st stripeState) error {
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
	for _, e := range sp.Extents {
		copy(im.Data[e.DataIdx][e.UnitOff:], p[e.ArrOff-base:e.ArrOff-base+e.Len])
	}
	for tries := 0; ; tries++ {
		err := s.storeStripeImage(im)
		if err == nil {
			s.meta.Lock()
			s.stats.DegradedWrites++
			s.meta.Unlock()
		}
		if err == nil || tries >= s.spanRetryBudget() || !s.absorbFailure(err) {
			return err
		}
		// A member failed mid-store: the stripe is half written, so its
		// at-rest parities no longer encode its at-rest data and the
		// span-level retry, which reconstructs from disk, would solve the
		// dead units into garbage. The image in hand is still complete;
		// store it again, around the absent members as they are now.
	}
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

// storeStripeImage writes back a full stripe image — the data units and
// the parities recomputed over them — to every member that is not absent,
// behind the stripe's mark (the image's reads are done). An absent member
// is marked stale on the stripe first, durably: it misses this write, and
// when it comes back its repair rebuilds the unit. A member present but
// stale here takes the write like any other, which takes the stripe off its
// stale map. Every written member then encodes the image, so the mark is
// cleared whoever set it — and, unlike a healthy write's, durably: a mark
// found at Open on a degraded array costs the dead members' units, not a
// rebuild.
func (s *Store) storeStripeImage(im *stripe.Image) error {
	if err := s.eng.Mark(im.Stripe); err != nil {
		return err
	}
	s.meta.Lock()
	absent := s.failed
	s.meta.Unlock()
	for _, d := range absent.List() {
		if err := s.eng.MarkStale(d, im.Stripe, im.Stripe+1); err != nil {
			return err
		}
	}
	im.Encode()
	if err := im.Store(absent); err != nil {
		return err
	}
	_, _, stale := s.eng.State(im.Stripe)
	for on := stale; on != 0; on &= on - 1 {
		if d := bits.TrailingZeros64(uint64(on)); !absent.Has(d) && s.eng.ClearStale(d, im.Stripe) {
			s.meta.Lock()
			s.stats.RecoveredStripes++ // as the repair's sweep would have
			s.meta.Unlock()
		}
	}
	s.eng.Clear(im.Stripe)
	return s.eng.Commit()
}

// rebuildParity is the scrubber's work unit: recompute the parities
// from the data units, read concurrently into a pooled image. Caller
// holds the stripe lock; no member is missing (the scrubber checks). Every
// parity is rewritten, even one the mode maintains synchronously: a
// marked stripe may carry a *torn* synchronous P from a write
// interrupted by a crash, and unmarking it with that stale P in place
// would plant latent corruption.
func (s *Store) rebuildParity(ctx context.Context, n int64) error {
	im := s.image(ctx, n)
	defer im.Release()
	if err := im.Load(stripe.Set{}, 0, 0, s.geo.StripeUnit); err != nil {
		return fmt.Errorf("core: scrub: %w", err)
	}
	im.Encode()
	for j, par := range im.Par {
		if err := s.devWrite(ctx, im.Member(len(im.Data)+j), par, s.geo.DiskOffset(n)); err != nil {
			return fmt.Errorf("core: scrub: %w", err)
		}
	}
	return nil
}

// repairStripe rebuilds the unit of a stripe stale on the target, the
// member under repair: a lost data unit is solved from the fresh parities,
// a lost parity unit recomputed from the data (valid whether or not the
// stripe was dirty). When this repair makes the stripe whole again, every
// parity the solve did not use — stale under a mark, or possibly torn by
// a write the array crashed in — is rewritten too and the mark cleared,
// so the stripe ends fully redundant. A stripe whose missing data the
// fresh parities cannot cover — unredundant at failure time, or in a
// layout with no parity — comes back as ErrDataLoss and is left to
// salvageStripe; one with more members missing than parities, as
// ErrTooManyFailures. Caller holds the stripe lock.
func (s *Store) repairStripe(ctx context.Context, stripe int64, target int) error {
	st := s.stripeState(stripe)
	if st.over {
		return tooMany(stripe)
	}
	im := s.image(ctx, stripe)
	defer im.Release()
	used, err := im.Solve(st.failed, st.fresh, 0, s.geo.StripeUnit)
	if err != nil {
		return fmt.Errorf("core: repair: %w", err)
	}
	k := im.Slot(target)
	last := st.failed.Len() == 1
	if k >= len(im.Data) || (last && used != s.allPar) {
		im.Encode()
	}
	if err := s.devWrite(ctx, target, im.All[k], s.geo.DiskOffset(stripe)); err != nil {
		return err
	}
	if last {
		for j, par := range im.Par {
			if d := im.Member(len(im.Data) + j); d != target && !used.Has(j) {
				if err := s.devWrite(ctx, d, par, s.geo.DiskOffset(stripe)); err != nil {
					return err
				}
			}
		}
		s.eng.Clear(stripe)
	}
	return nil
}

// repairUnit rewrites one unit that failed verification or that its
// member reported lost, from redundancy. The unit joins the missing
// members in a set; a nested unit error met while reconstructing joins it
// too, and the solve decides whether the fresh parities still cover the
// set. More missing members than the stripe has parities — a dead member
// plus a bad unit on RAID 5, a third casualty on RAID 6, anything at all on
// RAID 0 — is reported loss, as is a bad data unit under stale parity. A
// bad parity is recomputed from the data, which is valid for dirty stripes
// too (the mark stays; the scrubber recomputes again and clears it).
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
	im := s.image(ctx, ue.Stripe)
	defer im.Release()
	missing := st.failed
	for bad := ue.Disk; ; {
		if !missing.Add(bad, len(im.Par)) {
			return unitLossError(ue)
		}
		_, err := im.Solve(missing, st.fresh, 0, s.geo.StripeUnit)
		var nested *UnitError
		if errors.As(err, &nested) {
			bad = nested.Disk
			continue
		}
		if errors.Is(err, ErrDataLoss) {
			return unitLossError(ue)
		}
		if err != nil {
			return err
		}
		break
	}
	// Rewrite every unit the reconstruction found bad. Members present
	// only: missing ones are their repair's job.
	encoded := false
	for _, d := range missing.List() {
		if st.failed.Has(d) {
			continue
		}
		k := im.Slot(d)
		if k >= len(im.Data) && !encoded {
			// All data units are in hand, so any parity can be recomputed.
			im.Encode()
			encoded = true
		}
		if err := s.devWrite(ctx, d, im.All[k], s.geo.DiskOffset(ue.Stripe)); err != nil {
			return err
		}
	}
	return nil
}
