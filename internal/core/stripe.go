package core

import (
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
//   - the failed set — which member disks are gone (stripe.Set), a
//     member under repair only where the engine holds the stripe stale
//     on it;
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
// found at Open vouches for no parity at all.

// members is the store as a stripe.Image moves units through it: devRead
// and devWrite, so checksum verification, DiskErrors and through them
// fail-stop absorption apply to every unit of every stripe operation.
type members Store

func (m *members) ReadUnit(d int, p []byte, off int64) error {
	return (*Store)(m).devRead(d, p, off)
}

func (m *members) WriteUnit(d int, p []byte, off int64) error {
	return (*Store)(m).devWrite(d, p, off)
}

// image returns a pooled image of the stripe; the caller releases it.
func (s *Store) image(stripe int64) *stripe.Image {
	return s.arr.Get((*members)(s), stripe)
}

// stripeState is the snapshot every stripe operation starts from.
type stripeState struct {
	failed stripe.Set // the failed members, bar those under repair where the stripe is not stale on them
	n      uint8      // the sync count
	dirty  bool
	fresh  stripe.Parities
}

func (s *Store) stripeState(stripe int64) stripeState {
	s.meta.Lock()
	st := stripeState{failed: s.failed, n: s.sync[stripe]}
	repairing := s.underRepair
	s.meta.Unlock()
	var inherited bool
	var stale nvram.MemberSet
	st.dirty, inherited, stale = s.eng.State(stripe)
	for _, d := range repairing.List() {
		if !stale.Has(d) {
			st.failed.Remove(d)
		}
	}
	st.fresh = s.freshParities(st.n, st.dirty, inherited)
	return st
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

// readSpan reads one stripe's extents, reconstructing around failed
// disks when the fresh parities allow. Several extents are on distinct
// disks and overlap like any other unit I/O of a stripe: a read of a whole
// stripe costs about one device service time. Caller holds the stripe
// lock.
func (s *Store) readSpan(p []byte, base int64, sp layout.StripeSpan) error {
	st := s.stripeState(sp.Stripe)
	if e := sp.Extents[0]; len(sp.Extents) == 1 && !st.failed.Has(e.Disk) {
		return s.devRead(e.Disk, p[e.ArrOff-base:e.ArrOff-base+e.Len], e.DiskOff)
	}
	im := s.image(sp.Stripe)
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
// its extents are bare writes, and a dead disk's are lost. Otherwise a
// degraded stripe stores its whole image around the failed disks, a span
// that carries every data unit whole is a full-stripe write, and the rest
// read-modify-write the stripe's sync set (rmwSpan).
func (s *Store) writeSpan(p []byte, base int64, sp layout.StripeSpan) error {
	st := s.stripeState(sp.Stripe)
	switch {
	case s.allPar == 0:
		for _, e := range sp.Extents {
			if st.failed.Has(e.Disk) {
				return fmt.Errorf("%w: stripe %d", ErrDataLoss, sp.Stripe)
			}
			if err := s.devWrite(e.Disk, p[e.ArrOff-base:e.ArrOff-base+e.Len], e.DiskOff); err != nil {
				return err
			}
		}
		return nil
	case st.failed.Len() > 0:
		// Degraded operation: with a disk already gone, deferring parity
		// would turn the next failure into certain loss, so the array
		// maintains every surviving parity synchronously (and through
		// them the contents of the dead units).
		return s.writeSpanDegraded(p, base, sp, st)
	case sp.FullStripe(s.geo):
		return s.writeFullStripe(p, base, sp)
	}
	return s.rmwSpan(p, base, sp, st)
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
func (s *Store) writeFullStripe(p []byte, base int64, sp layout.StripeSpan) error {
	if err := s.eng.Mark(sp.Stripe); err != nil {
		return err
	}
	im := s.image(sp.Stripe)
	defer im.Release()
	if err := im.WriteFull(p, base, sp); err != nil {
		return err
	}
	s.ob.fullStripe.Inc()
	s.eng.Clear(sp.Stripe)
	return nil
}

// rmwSpan writes a partial span of a healthy stripe. Its reads come first:
// with a sync set, the old bytes of its extents and the sync parities'
// over their range, the delta folded in memory (Image.Update); with none
// (AFRAID), only the old contents under partial extents, verified where no
// parity stays fresh across the mark (preflightChecksums) — a corruption
// found after the write's own mark would read as loss. Then the mark,
// which also lifts a quarantine (the write may replace the corrupt unit),
// then the writes, every one attempted even after one fails: a member that
// fail-stops takes only its own unit, and the survivors encode the new
// data for the degraded retry. A mark that defers parities stands for the
// scrubber; one a fully synchronous write set on a clean stripe is cleared
// when the write has landed. A failed write leaves its mark standing, so
// the scrubber re-encodes the stripe from what landed. Caller holds the
// stripe lock.
func (s *Store) rmwSpan(p []byte, base int64, sp layout.StripeSpan, st stripeState) error {
	sync := syncSet(st.n)
	if sync == 0 {
		if err := s.preflightChecksums(sp); err != nil {
			return err
		}
		if err := s.eng.Mark(sp.Stripe); err != nil {
			return err
		}
		for _, e := range sp.Extents {
			if err := s.devWrite(e.Disk, p[e.ArrOff-base:e.ArrOff-base+e.Len], e.DiskOff); err != nil {
				return err
			}
		}
		return nil
	}
	im := s.image(sp.Stripe)
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

// writeSpanDegraded rewrites the whole stripe image around the failed
// disks: reconstruct, apply the new data, recompute the parities, write
// the surviving units. A span that carries the whole data image
// overwrites everything a reconstruction would load, so it skips it —
// and with it the need for a fresh parity: such a write succeeds, and
// heals the stripe, where the old contents are already lost. Caller
// holds the stripe lock.
func (s *Store) writeSpanDegraded(p []byte, base int64, sp layout.StripeSpan, st stripeState) error {
	im := s.image(sp.Stripe)
	defer im.Release()
	if !sp.FullStripe(s.geo) {
		if _, err := im.Solve(st.failed, st.fresh, 0, s.geo.StripeUnit); err != nil {
			return err
		}
	}
	for _, e := range sp.Extents {
		copy(im.Data[e.DataIdx][e.UnitOff:], p[e.ArrOff-base:e.ArrOff-base+e.Len])
	}
	for tries := 0; ; tries++ {
		err := s.storeStripeImage(im)
		if err == nil || tries >= s.spanRetryBudget() || !s.absorbFailure(err) {
			return err
		}
		// A member failed mid-store: the stripe is half written, so its
		// at-rest parities no longer encode its at-rest data and the
		// span-level retry, which reconstructs from disk, would solve the
		// dead units into garbage. The image in hand is still complete;
		// store it again, around the failed set as it is now.
	}
}

// storeStripeImage writes back a full stripe image — the data units and
// the parities recomputed over them — to every member that takes writes,
// behind the stripe's mark (the image's reads are done): the survivors, so
// the parities keep encoding the dead units, and a member under repair
// like any other, stale here or not, which takes the stripe off its stale
// map. Every written member then encodes the image, so the mark is cleared
// whoever set it — and, unlike a healthy write's, durably: a mark found at
// Open on a degraded array costs the dead members' units, not a rebuild.
func (s *Store) storeStripeImage(im *stripe.Image) error {
	if err := s.eng.Mark(im.Stripe); err != nil {
		return err
	}
	s.meta.Lock()
	dead, repairing := s.failed, s.underRepair
	s.meta.Unlock()
	for _, d := range repairing.List() {
		dead.Remove(d)
	}
	off := s.geo.DiskOffset(im.Stripe)
	im.Encode()
	for k, u := range im.All {
		if d := im.Member(k); !dead.Has(d) {
			if err := s.devWrite(d, u, off); err != nil {
				return err
			}
		}
	}
	// Under meta, which FailDisk holds while it stales a member again.
	s.meta.Lock()
	for _, d := range repairing.List() {
		if s.underRepair.Has(d) && s.eng.ClearStale(d, im.Stripe) {
			s.stats.RecoveredStripes++ // as the sweep would have
		}
	}
	s.meta.Unlock()
	s.eng.Clear(im.Stripe)
	return s.eng.Commit()
}

// rebuildParity is the scrubber's work unit: recompute the parities
// from the data units, read concurrently into a pooled image. Caller
// holds the stripe lock; no disks are dead (the scrubber checks). Every
// parity is rewritten, even one the mode maintains synchronously: a
// marked stripe may carry a *torn* synchronous P from a write
// interrupted by a crash, and unmarking it with that stale P in place
// would plant latent corruption.
func (s *Store) rebuildParity(n int64) error {
	im := s.image(n)
	defer im.Release()
	if err := im.Load(stripe.Set{}, 0, 0, s.geo.StripeUnit); err != nil {
		return fmt.Errorf("core: scrub: %w", err)
	}
	im.Encode()
	for j, par := range im.Par {
		if err := s.devWrite(im.Member(len(im.Data)+j), par, s.geo.DiskOffset(n)); err != nil {
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
// salvageStripe. Caller holds the stripe lock.
func (s *Store) repairStripe(stripe int64, target int) error {
	st := s.stripeState(stripe)
	im := s.image(stripe)
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
	if err := s.devWrite(target, im.All[k], s.geo.DiskOffset(stripe)); err != nil {
		return err
	}
	if last {
		for j, par := range im.Par {
			if d := im.Member(len(im.Data) + j); d != target && !used.Has(j) {
				if err := s.devWrite(d, par, s.geo.DiskOffset(stripe)); err != nil {
					return err
				}
			}
		}
		s.eng.Clear(stripe)
	}
	return nil
}

// repairUnit rewrites one corrupt unit from redundancy. The corrupt
// unit joins the failed disks in a missing set; a nested mismatch met
// while reconstructing joins it too, and the solve decides whether the
// fresh parities still cover the set. More missing members than the
// stripe has parities — a dead member plus a corrupt unit on RAID 5, a
// third casualty on RAID 6, anything at all on RAID 0 — is reported
// loss, as is a corrupt data unit under stale parity. A corrupt parity
// is recomputed from the data, which is valid for dirty stripes too (the
// mark stays; the scrubber recomputes again and clears it). Caller holds
// the stripe lock; the unit is re-verified first, so a retry that lost
// a race with another repair (CheckParity workers drop the lock between
// check and repair) is a no-op.
func (s *Store) repairUnit(stripe int64, disk int) error {
	if err := s.verifyUnit(disk, stripe); err == nil {
		return nil
	} else if !errors.Is(err, ErrChecksumMismatch) {
		return err
	}
	st := s.stripeState(stripe)
	im := s.image(stripe)
	defer im.Release()
	missing := st.failed
	for bad := disk; ; {
		if !missing.Add(bad, len(im.Par)) {
			return csumLossError(stripe, disk)
		}
		_, err := im.Solve(missing, st.fresh, 0, s.geo.StripeUnit)
		var ce *ChecksumError
		if errors.As(err, &ce) {
			bad = ce.Disk
			continue
		}
		if errors.Is(err, ErrDataLoss) {
			return csumLossError(stripe, disk)
		}
		if err != nil {
			return err
		}
		break
	}
	// Rewrite everything the reconstruction proved corrupt. Live disks
	// only: dead members are RepairDisk's job.
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
		if err := s.devWrite(d, im.All[k], s.geo.DiskOffset(stripe)); err != nil {
			return err
		}
	}
	return nil
}
