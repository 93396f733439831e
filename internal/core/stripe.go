package core

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"afraid/internal/layout"
)

// The stripe engine. Every array organisation the store offers is the
// same mechanism with m = Level.ParityUnits() parity units per stripe:
// m = 0 (RAID 0), m = 1 (RAID 5 / AFRAID) or m = 2 (RAID 6 / AFRAID6,
// the §5 "partial redundancy protection available immediately"
// extension). Each stripe operation therefore exists once, and three
// values decide everything about it:
//
//   - the failed set — which member disks are gone (failedSet);
//   - freshness — which parities encode the stripe's at-rest data
//     (freshParities), the one "can this be reconstructed / is this
//     loss" test;
//   - the sync set — which parities a write updates in its
//     read-modify-write, the rest being deferred behind a mark
//     (syncParities).

// paritySet is a set of a stripe's parity units: bit j is parity j
// (0 = P, 1 = Q).
type paritySet uint8

func (ps paritySet) has(j int) bool { return ps&(1<<j) != 0 }

// failedSet is a small fixed-capacity set of member disks, in insertion
// order. The store keeps one for the members that have failed; unit
// repair grows a copy with the units it finds corrupt. A value, so a
// snapshot taken under meta is stable for the rest of the span.
type failedSet struct {
	n int
	d [2]int
}

// list returns the members in insertion order, aliasing the set.
func (f *failedSet) list() []int { return f.d[:f.n] }

func (f *failedSet) has(d int) bool {
	for _, x := range f.list() {
		if x == d {
			return true
		}
	}
	return false
}

// add inserts d and reports whether it did: not when d is already a
// member or the set holds limit members (at most len(f.d)).
func (f *failedSet) add(d, limit int) bool {
	if f.n >= limit || f.has(d) {
		return false
	}
	f.d[f.n] = d
	f.n++
	return true
}

func (f *failedSet) remove(d int) {
	for i, x := range f.list() {
		if x == d {
			copy(f.d[i:], f.d[i+1:f.n])
			f.n--
			return
		}
	}
}

// stripeState is the snapshot every stripe operation starts from.
type stripeState struct {
	failed failedSet
	pol    StripePolicy
	dirty  bool
	fresh  paritySet
}

func (s *Store) stripeState(stripe int64) stripeState {
	s.meta.Lock()
	st := stripeState{failed: s.failed, pol: s.effectivePolicy(stripe)}
	s.meta.Unlock()
	st.dirty = s.eng.IsMarked(stripe)
	st.fresh = s.freshParities(st.pol, st.dirty)
	return st
}

// freshParities reports which of a stripe's parities encode its at-rest
// data: none on a never-redundant stripe, all on a clean one, and on a
// marked one those the mark does not declare stale — nothing for AFRAID
// and for AFRAID6 deferring both, P for AFRAID6 deferring only Q (a mark
// left on a synchronous store by NVRAM recovery reads the same way).
func (s *Store) freshParities(pol StripePolicy, dirty bool) paritySet {
	switch {
	case pol == PolicyNeverRedundant:
		return 0
	case dirty:
		return s.allPar &^ s.deferred
	default:
		return s.allPar
	}
}

// syncParities reports which parities a write to the stripe keeps
// current in its read-modify-write. Under PolicyDefault the others are
// deferred to the scrubber behind a mark.
func (s *Store) syncParities(pol StripePolicy) paritySet {
	switch pol {
	case PolicyNeverRedundant:
		return 0
	case PolicyAlwaysRedundant:
		return s.allPar
	default:
		return s.allPar &^ s.deferred
	}
}

// parityDisk returns the disk holding parity j of a stripe.
func (s *Store) parityDisk(stripe int64, j int) int {
	if j == 0 {
		return s.geo.ParityDisk(stripe)
	}
	return s.geo.QDisk(stripe)
}

// unitIndex maps a member disk to its slot in a stripe arena: its data
// index, or DataDisks()+j when it holds parity j.
func (s *Store) unitIndex(stripe int64, d int) int {
	role, idx := s.geo.RoleOf(stripe, d)
	if role == layout.Data {
		return idx
	}
	return s.geo.DataDisks() + int(role-layout.Parity)
}

// unitDisk is the inverse of unitIndex.
func (s *Store) unitDisk(stripe int64, k int) int {
	if dd := s.geo.DataDisks(); k >= dd {
		return s.parityDisk(stripe, k-dd)
	}
	return s.geo.DataDisk(stripe, k)
}

// encode computes every parity of a data image — the arena's units, or
// views of a caller's buffer — into the arena's parity units. All parity
// arithmetic in the store runs through encode, reconstruct and
// rmwExtent, which time it into the parity_compute histogram.
func (s *Store) encode(sb *stripeBuf, data [][]byte) {
	pt := time.Now()
	s.code.Encode(sb.par, data)
	s.observeParity(pt)
}

// readUnits reads unit bytes [lo,hi) of the stripe into the arena: every
// data unit whose disk is not in skip, and the parities in want. Skipped
// buffers keep arbitrary contents.
func (s *Store) readUnits(sb *stripeBuf, stripe int64, skip failedSet, want paritySet, lo, hi int64) error {
	sb.window(want, lo, hi)
	return s.unitIO(false, sb, stripe, skip, lo)
}

// unitIO reads or writes, at unit offset lo of the stripe, the bytes
// every view names, except data units on the disks in skip. The units
// live on distinct disks, so the operations are fanned out to the I/O
// workers and overlap — a whole stripe moves in about one device service
// time; one is kept back and done inline so the calling goroutine
// contributes instead of blocking. Every one is attempted even after one
// fails. Returns the first error in arena order.
func (s *Store) unitIO(write bool, sb *stripeBuf, stripe int64, skip failedSet, lo int64) error {
	off := s.geo.DiskOffset(stripe) + lo
	dd := len(sb.units)
	clear(sb.errs)
	inline := ioReq{disk: -1}
	for k, u := range sb.view {
		if u == nil {
			continue
		}
		d := s.unitDisk(stripe, k)
		if k < dd && skip.has(d) {
			continue
		}
		req := ioReq{write: write, disk: d, buf: u, off: off, errp: &sb.errs[k], wg: &sb.wg}
		if inline.disk < 0 {
			inline = req
			continue
		}
		s.devAsync(req)
	}
	if inline.disk >= 0 {
		s.doTimed(inline)
	}
	sb.wg.Wait()
	for _, err := range sb.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reconstruct loads unit bytes [lo,hi) of every data unit of the stripe
// into sb.units — or straight into sb.dst[k], for the units the caller
// names a destination for: survivors are read, and the data units on
// missing disks (at most as many as there are parities) are solved from
// the fresh parities that are not missing themselves. When those cannot
// cover the missing units — the data-loss case — it returns ErrDataLoss
// before any I/O. It reports the parities the solve used: by
// construction they encode the loaded image exactly, which no other
// parity of a torn stripe is known to. It serves the degraded read and
// write, the repair sweep and unit repair. Caller holds the stripe lock.
func (s *Store) reconstruct(sb *stripeBuf, stripe int64, missing failedSet, fresh paritySet, lo, hi int64) (used paritySet, err error) {
	dd := len(sb.units)
	var lostBuf [len(missing.d)]int
	lost := lostBuf[:0]
	for _, d := range missing.list() {
		if k := s.unitIndex(stripe, d); k < dd {
			lost = append(lost, k)
		} else {
			fresh &^= 1 << (k - dd)
		}
	}
	// Use the fewest parities that cover the lost units, P first.
	for j, need := 0, len(lost); need > 0; j++ {
		if j >= len(sb.par) {
			return 0, fmt.Errorf("%w: stripe %d", ErrDataLoss, stripe)
		}
		if fresh.has(j) {
			used |= 1 << j
			need--
		}
	}
	sb.window(used, lo, hi)
	if err := s.unitIO(false, sb, stripe, missing, lo); err != nil {
		return 0, err
	}
	if len(lost) == 0 {
		return 0, nil
	}
	pt := time.Now()
	ok := s.code.Solve(sb.view[:dd], lost, sb.view[dd:])
	s.observeParity(pt)
	if !ok {
		panic("core: erasure code refused a covered missing set")
	}
	return used, nil
}

// readSpan reads one stripe's extents, reconstructing around failed
// disks when the fresh parities allow. Caller holds the stripe lock.
func (s *Store) readSpan(p []byte, base int64, sp layout.StripeSpan) error {
	st := s.stripeState(sp.Stripe)
	// Only the byte range of the extents on failed disks is solved, so a
	// small degraded read moves a small range of every survivor, not
	// whole units.
	lo, hi := s.geo.StripeUnit, int64(0)
	for _, e := range sp.Extents {
		if st.failed.has(e.Disk) {
			lo, hi = min(lo, e.UnitOff), max(hi, e.UnitOff+e.Len)
		}
	}
	if lo >= hi {
		return s.readExtents(p, base, sp)
	}
	// The solve reads that range of every survivor, so each survivor moves
	// once: an extent that is exactly the range is read — or solved —
	// where the caller wants it, one inside the range is copied out of the
	// arena, and only one that reaches past it is read on its own.
	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	for _, e := range sp.Extents {
		if e.UnitOff == lo && e.UnitOff+e.Len == hi {
			sb.dst[e.DataIdx] = p[e.ArrOff-base : e.ArrOff-base+e.Len]
		}
	}
	if _, err := s.reconstruct(sb, sp.Stripe, st.failed, st.fresh, lo, hi); err != nil {
		return err
	}
	s.meta.Lock()
	s.stats.DegradedReads++
	s.meta.Unlock()
	for _, e := range sp.Extents {
		dst := p[e.ArrOff-base : e.ArrOff-base+e.Len]
		switch {
		case sb.dst[e.DataIdx] != nil:
		case lo <= e.UnitOff && e.UnitOff+e.Len <= hi:
			copy(dst, sb.units[e.DataIdx][e.UnitOff:])
		default:
			if err := s.devRead(e.Disk, dst, e.DiskOff); err != nil {
				return err
			}
		}
	}
	return nil
}

// readExtents reads a healthy span's extents where the caller wants
// them. They are on distinct disks, so on members slow enough for it to
// pay several overlap like any other unit I/O of a stripe (unitIO): a
// read of a whole stripe costs about one device service time.
func (s *Store) readExtents(p []byte, base int64, sp layout.StripeSpan) error {
	if e := sp.Extents[0]; len(sp.Extents) == 1 {
		return s.devRead(e.Disk, p[e.ArrOff-base:e.ArrOff-base+e.Len], e.DiskOff)
	}
	if !s.overlaps() {
		// One after another — and timed, so that members that turn slow
		// are noticed by a store that only reads.
		t := time.Now()
		for _, e := range sp.Extents {
			if err := s.devRead(e.Disk, p[e.ArrOff-base:e.ArrOff-base+e.Len], e.DiskOff); err != nil {
				return err
			}
		}
		s.unitNs.Store(int64(time.Since(t)) / int64(len(sp.Extents)))
		return nil
	}
	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	clear(sb.errs)
	req := func(e layout.Extent) ioReq {
		return ioReq{disk: e.Disk, buf: p[e.ArrOff-base : e.ArrOff-base+e.Len], off: e.DiskOff, errp: &sb.errs[e.DataIdx], wg: &sb.wg}
	}
	for _, e := range sp.Extents[1:] {
		s.devAsync(req(e))
	}
	s.doTimed(req(sp.Extents[0]))
	sb.wg.Wait()
	for _, err := range sb.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSpan applies one stripe's worth of a write under the stripe
// lock. A span that carries the stripe's whole data image is a
// full-stripe write in every organisation that keeps parity. Otherwise
// healthy stripes take the read-modify-write over the policy's sync set;
// when that leaves parities deferred the stripe is marked first, and
// with an empty sync set (AFRAID, RAID 0) the write is the bare data
// write.
func (s *Store) writeSpan(p []byte, base int64, sp layout.StripeSpan) error {
	st := s.stripeState(sp.Stripe)
	if st.failed.n > 0 && st.pol != PolicyNeverRedundant {
		// Degraded operation: with a disk already gone, deferring parity
		// would turn the next failure into certain loss, so the array
		// maintains every surviving parity synchronously (and through
		// them the contents of the dead units).
		return s.writeSpanDegraded(p, base, sp, st)
	}
	if st.failed.n == 0 && st.pol != PolicyNeverRedundant && sp.FullStripe(s.geo) {
		return s.writeFullStripe(p, base, sp, st)
	}
	sync := s.syncParities(st.pol)
	if st.pol == PolicyDefault {
		// When no parity stays fresh across the mark, verify the old
		// contents under partial extents *before* marking: a corruption
		// found after our own mark would be misread as dirty-stripe loss
		// (see preflightChecksums).
		if err := s.preflightChecksums(sp); err != nil {
			return err
		}
		// The mark is durable before the data moves. A fresh write may also
		// overwrite the corrupt unit that put the stripe in quarantine, so
		// marking lifts that and lets the scrubber try again.
		if err := s.eng.Mark(sp.Stripe); err != nil {
			return err
		}
	}
	for _, e := range sp.Extents {
		if st.failed.has(e.Disk) {
			// Unprotected stripe: a dead disk makes writes to its units
			// unrecoverable, matching RAID 0 semantics.
			return fmt.Errorf("%w: stripe %d", ErrDataLoss, sp.Stripe)
		}
		if err := s.rmwExtent(sp.Stripe, e, p[e.ArrOff-base:e.ArrOff-base+e.Len], sync); err != nil {
			return err
		}
	}
	return nil
}

// writeFullStripe writes a span that carries every data unit of a
// healthy stripe whole. Its parities are a function of the bytes in hand,
// so there is no small-update penalty to defer: they are encoded straight
// from views of the caller's buffer, and the data and parity units go to
// their disks together. Nothing is read, so no old contents are verified
// first. A deferring policy still makes the mark durable before the first
// byte moves — interrupted, the write leaves the stripe marked, as any
// other would — and the stripe ends redundant whatever it was before: the
// mark is cleared in memory when the last unit has landed, and the NVRAM
// image catches up at its next store (a mark left there by a crash costs
// one spurious rebuild). Caller holds the stripe lock.
func (s *Store) writeFullStripe(p []byte, base int64, sp layout.StripeSpan, st stripeState) error {
	if st.pol == PolicyDefault {
		if err := s.eng.Mark(sp.Stripe); err != nil {
			return err
		}
	}
	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	for _, e := range sp.Extents {
		sb.view[e.DataIdx] = p[e.ArrOff-base : e.ArrOff-base+e.Len]
	}
	dd := len(sb.units)
	copy(sb.view[dd:], sb.par)
	s.encode(sb, sb.view[:dd])
	if err := s.unitIO(true, sb, sp.Stripe, failedSet{}, 0); err != nil {
		return err
	}
	s.ob.fullStripe.Inc()
	if st.pol == PolicyDefault || st.dirty {
		s.eng.Clear(sp.Stripe)
	}
	return nil
}

// rmwExtent writes one extent and delta-updates the parities in sync:
// read the old data and old parity ranges, fold old^new into each
// parity, write the parities and then the data. The ranges live on
// different disks, so all reads but one go to the I/O workers while this
// goroutine does the last; scratch comes from the stripe-buffer pool, so
// steady-state synchronous writes allocate nothing. With sync empty
// there is nothing to read or fold and no arena is taken.
func (s *Store) rmwExtent(stripe int64, e layout.Extent, src []byte, sync paritySet) error {
	if sync == 0 {
		return s.devWrite(e.Disk, src, e.DiskOff)
	}
	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	off := s.geo.DiskOffset(stripe) + e.UnitOff
	errs := sb.errs[:1+len(sb.par)]
	clear(errs)
	old := sb.units[0][:e.Len]
	s.devAsync(ioReq{disk: e.Disk, buf: old, off: e.DiskOff, errp: &errs[0], wg: &sb.wg})
	last := bits.Len8(uint8(sync)) - 1
	for j := range sb.par[:last] {
		if sync.has(j) {
			s.devAsync(ioReq{disk: s.parityDisk(stripe, j), buf: sb.par[j][:e.Len], off: off, errp: &errs[1+j], wg: &sb.wg})
		}
	}
	errs[1+last] = s.devRead(s.parityDisk(stripe, last), sb.par[last][:e.Len], off)
	sb.wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	pt := time.Now()
	for j := range sb.par {
		if sync.has(j) {
			s.code.Update(j, sb.par[j][:e.Len], old, src, e.DataIdx)
		}
	}
	s.observeParity(pt)
	// Every write is attempted even after one fails. A member that
	// fail-stops here takes only its own unit with it: the survivors end
	// up encoding the new data, so the degraded retry — or a retry of that
	// retry, should a second member go before it has rewritten the stripe
	// — reconstructs through consistent parities, not through a P that is
	// one delta ahead of the data.
	var first error
	for j := range sb.par {
		if sync.has(j) {
			if err := s.devWrite(s.parityDisk(stripe, j), sb.par[j][:e.Len], off); err != nil && first == nil {
				first = err
			}
		}
	}
	if err := s.devWrite(e.Disk, src, e.DiskOff); err != nil && first == nil {
		first = err
	}
	return first
}

// writeSpanDegraded rewrites the whole stripe image around the failed
// disks: reconstruct, apply the new data, recompute the parities, write
// the surviving units. A span that carries the whole data image
// overwrites everything a reconstruction would load, so it skips it —
// and with it the need for a fresh parity: such a write succeeds, and
// heals the stripe, where the old contents are already lost. Caller
// holds the stripe lock.
func (s *Store) writeSpanDegraded(p []byte, base int64, sp layout.StripeSpan, st stripeState) error {
	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	if !sp.FullStripe(s.geo) {
		if _, err := s.reconstruct(sb, sp.Stripe, st.failed, st.fresh, 0, s.geo.StripeUnit); err != nil {
			return err
		}
	}
	for _, e := range sp.Extents {
		copy(sb.units[e.DataIdx][e.UnitOff:], p[e.ArrOff-base:e.ArrOff-base+e.Len])
	}
	for tries := 0; ; tries++ {
		err := s.storeStripeImage(sp.Stripe, sb, st.failed, st.dirty)
		if err == nil || tries >= s.spanRetryBudget() || !s.absorbFailure(err) {
			return err
		}
		// A member failed mid-store: the stripe is half written, so its
		// at-rest parities no longer encode its at-rest data and the
		// span-level retry, which reconstructs from disk, would solve the
		// dead units into garbage. The image in hand is still complete;
		// store it again around the larger failed set.
		s.meta.Lock()
		st.failed = s.failed
		s.meta.Unlock()
	}
}

// storeStripeImage writes back a full stripe image — the data units and
// the parities recomputed over them — to every surviving disk, so the
// parities keep encoding the dead units. A dead disk's unit (data or
// parity) is instead mirrored onto an in-progress replacement once the
// repair sweep has passed this stripe, so the replacement does not hold
// stale data when RepairDisk swaps it in. The stripe ends fully
// redundant, and is unmarked, only if every parity disk is alive; a
// dead one gets its copy at repair time.
func (s *Store) storeStripeImage(stripe int64, sb *stripeBuf, failed failedSet, wasDirty bool) error {
	off := s.geo.DiskOffset(stripe)
	s.encode(sb, sb.units)
	parWritten := 0
	for k, u := range sb.all {
		d := s.unitDisk(stripe, k)
		if !failed.has(d) {
			if err := s.devWrite(d, u, off); err != nil {
				return err
			}
			if k >= len(sb.units) {
				parWritten++
			}
		} else if rd := s.repairTarget(stripe, d); rd != nil {
			if err := s.writeUnitTo(rd, stripe, u); err != nil {
				return fmt.Errorf("core: repair mirror write: %w", err)
			}
		}
	}
	if wasDirty && parWritten == len(sb.par) {
		s.eng.Clear(stripe)
		return s.eng.Commit()
	}
	return nil
}

// writeUnitTo writes one whole stripe unit, and its checksum slot, to a
// device that is not (yet) a member: the replacement a repair sweep
// fills, or a repair mirror target.
func (s *Store) writeUnitTo(dev BlockDevice, stripe int64, u []byte) error {
	if _, err := dev.WriteAt(u, s.geo.DiskOffset(stripe)); err != nil {
		return err
	}
	return s.putChecksumTo(dev, stripe, u)
}

// repairTarget returns the replacement device a degraded write to the
// stripe must mirror disk d's unit onto: non-nil exactly when RepairDisk
// is rebuilding disk d and its sweep has already rebuilt this stripe.
// The answer cannot go stale within the span: a sweep worker sets the
// stripe's done bit only while holding that stripe's lock, which the
// caller already holds.
func (s *Store) repairTarget(stripe int64, d int) BlockDevice {
	s.meta.Lock()
	defer s.meta.Unlock()
	if s.repDisk == d && s.repDone != nil && s.repDone.IsMarked(stripe) {
		return s.repDev
	}
	return nil
}

// rebuildParity is the scrubber's work unit: recompute the parities
// from the data units, read concurrently into a pooled arena. Caller
// holds the stripe lock; no disks are dead (the scrubber checks). Every
// parity is rewritten, even one the mode maintains synchronously: a
// marked stripe may carry a *torn* synchronous P from a write
// interrupted by a crash, and unmarking it with that stale P in place
// would plant latent corruption.
func (s *Store) rebuildParity(stripe int64) error {
	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	if err := s.readUnits(sb, stripe, failedSet{}, 0, 0, s.geo.StripeUnit); err != nil {
		return fmt.Errorf("core: scrub: %w", err)
	}
	s.encode(sb, sb.units)
	for j, par := range sb.par {
		if err := s.devWrite(s.parityDisk(stripe, j), par, s.geo.DiskOffset(stripe)); err != nil {
			return fmt.Errorf("core: scrub: %w", err)
		}
	}
	return nil
}

// repairStripe reconstructs the target disk's unit of one stripe onto
// the replacement: a lost data unit is solved from the fresh parities,
// a lost parity unit recomputed from the data (valid whether or not the
// stripe was dirty). When this repair makes the array whole again, every
// parity the solve did not use — stale under a mark, or possibly torn by
// a write the array crashed in — is rewritten too and the mark cleared,
// so the array ends fully redundant. A stripe whose missing data the
// fresh parities cannot cover — unredundant at failure time, or never
// redundant — comes back as ErrDataLoss and is left to salvageStripe.
// Caller holds the stripe lock.
func (s *Store) repairStripe(stripe int64, target int, replacement BlockDevice) error {
	st := s.stripeState(stripe)
	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	used, err := s.reconstruct(sb, stripe, st.failed, st.fresh, 0, s.geo.StripeUnit)
	if err != nil {
		return fmt.Errorf("core: repair: %w", err)
	}
	k := s.unitIndex(stripe, target)
	last := st.failed.n == 1
	if k >= len(sb.units) || (last && used != s.allPar) {
		s.encode(sb, sb.units)
	}
	if err := s.writeUnitTo(replacement, stripe, sb.all[k]); err != nil {
		return err
	}
	if last {
		for j, par := range sb.par {
			if d := s.parityDisk(stripe, j); d != target && !used.has(j) {
				if err := s.devWrite(d, par, s.geo.DiskOffset(stripe)); err != nil {
					return err
				}
			}
		}
		if st.dirty {
			s.clearMark(stripe)
		}
	}
	s.bumpRecovered()
	return nil
}

// repairUnit rewrites one corrupt unit from redundancy. The corrupt
// unit joins the failed disks in a missing set; a nested mismatch met
// while reconstructing joins it too, and reconstruct decides whether the
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
	sb := s.getStripeBuf()
	defer s.putStripeBuf(sb)
	missing := st.failed
	for bad := disk; ; {
		if !missing.add(bad, len(sb.par)) {
			return csumLossError(stripe, disk)
		}
		_, err := s.reconstruct(sb, stripe, missing, st.fresh, 0, s.geo.StripeUnit)
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
	for _, d := range missing.list() {
		if st.failed.has(d) {
			continue
		}
		k := s.unitIndex(stripe, d)
		if k >= len(sb.units) && !encoded {
			// All data units are in hand, so any parity can be recomputed.
			s.encode(sb, sb.units)
			encoded = true
		}
		if err := s.devWrite(d, sb.all[k], s.geo.DiskOffset(stripe)); err != nil {
			return err
		}
	}
	return nil
}
