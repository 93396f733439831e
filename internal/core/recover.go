package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"afraid/internal/nvram"
)

// Failer is implemented by devices that can be switched into a
// fail-stop state (MemDevice, fault-injection wrappers). FailDisk uses
// it to make the device itself start erroring, not just the store's
// bookkeeping.
type Failer interface {
	Fail()
}

// FailDisk injects a fail-stop failure of disk i. Subsequent reads of
// its units are served degraded (for clean stripes) and writes maintain
// parity synchronously. The store absorbs one failure per parity unit
// of its layout (a RAID 0 store tracks one, every unit of which is lost).
// Failing a disk under repair, or one whose repair stopped midway, fails
// its replacement: the repair is abandoned, and the disk is stale on every
// stripe again, in the marking memory before FailDisk returns — degraded
// writes are about to pass by the units the sweep rebuilt on it.
func (s *Store) FailDisk(i int) error {
	if i < 0 || i >= len(s.devs) {
		return fmt.Errorf("core: disk %d out of range", i)
	}
	s.meta.Lock()
	defer s.meta.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.failed.Has(i) && !s.failed.Add(i, s.maxFailed()) {
		return ErrTooManyFailures
	}
	if f, ok := s.devs[i].(Failer); ok {
		f.Fail()
	}
	if !s.underRepair.Has(i) {
		return nil
	}
	// meta is held across the store: no span takes its stripe state, and so
	// none writes around i, before the image shows i stale.
	s.underRepair.Remove(i)
	return s.eng.MarkStale(i, 0, s.geo.Stripes())
}

// DamagedRange is a client byte range whose contents were lost: it
// lived on the failed disk inside a stripe whose parity was stale.
type DamagedRange struct {
	Offset int64
	Length int64
	Stripe int64
}

// DamageReport lists the data lost during a repair. For a RAID 5 store
// (or an AFRAID store that was fully flushed) it is empty; for an
// AFRAID store it is bounded by the stripes that were dirty at failure
// time — the paper's key argument that the exposure is small and
// enumerable.
type DamageReport struct {
	Lost []DamagedRange
}

// Bytes returns the total bytes lost.
func (r DamageReport) Bytes() int64 {
	var n int64
	for _, d := range r.Lost {
		n += d.Length
	}
	return n
}

// RepairDisk replaces failed disk i with a fresh device and
// reconstructs its contents:
//
//   - clean stripes: the lost unit (data or parity) is rebuilt exactly
//     from the survivors;
//   - dirty stripes whose lost unit was parity: parity is recomputed
//     from the data (no loss);
//   - dirty stripes whose lost unit was data: the contents are gone —
//     the unit is zero-filled, parity is recomputed over the zeroed
//     stripe, and the range is recorded in the damage report.
//
// The replacement is member i at once, stale on every stripe — in the
// marking memory before it is installed: a stripe counts i as failed
// until the sweep rebuilds its unit, or a degraded write stores the stripe
// whole, i's unit included, and the sweep skips it. A stripe i is not
// stale on is an ordinary stripe: reads go to the replacement, and a write
// defers parity as its sync count says.
//
// The sweep absorbs a member's fail-stop failure and retries the stripe;
// the replacement's, or FailDisk(i), abandons the repair, and i is stale
// on every stripe again. Any other error stops the sweep but keeps the
// replacement and what it has rebuilt, as swept stripes may hold writes
// only it has: RepairDisk(i) onto the same device resumes, and a repair
// onto another device is refused while i holds a stripe it is not stale
// on. The stale stripes are in the marking memory, so a repair stopped by
// a crash or a Close resumes the same way after Open, onto the device in
// slot i. i stays in DeadDisks until a repair succeeds, and a failed one
// returns with its error the report of what it salvaged, counted in Stats
// as a finished one's is.
func (s *Store) RepairDisk(i int, replacement BlockDevice) (DamageReport, error) {
	var report DamageReport
	if i < 0 || i >= len(s.devs) {
		return report, fmt.Errorf("core: disk %d out of range", i)
	}
	need := s.geo.DiskSize
	if s.opts.Checksums {
		need += s.geo.ChecksumTrailerBytes()
	}
	if replacement.Size() < need {
		return report, fmt.Errorf("core: replacement size %d smaller than member size %d",
			replacement.Size(), need)
	}
	stripes := s.geo.Stripes()
	// Install under every stripe lock: devRead and devWrite read s.devs[i]
	// holding a stripe lock but not meta, and a span that snapshotted the
	// array before i failed may still be in one on the old device.
	for k := range s.locks {
		s.locks[k].Lock()
	}
	s.meta.Lock()
	var err error
	switch resume := s.underRepair.Has(i) && s.devs[i] == replacement; {
	case s.closed:
		err = ErrClosed
	case !s.failed.Has(i):
		err = fmt.Errorf("core: disk %d is not a failed disk", i)
	case s.sweeping:
		err = fmt.Errorf("core: a repair is already in progress")
	case resume:
		s.sweeping = true
	case s.underRepair.Has(i) && s.eng.StaleCount(i) < stripes:
		err = fmt.Errorf("core: repair of disk %d stopped midway: resume it onto its replacement, or fail the disk first", i)
	default:
		if err = s.eng.MarkStale(i, 0, stripes); err == nil {
			s.devs[i], s.sweeping = replacement, true
			s.underRepair.Add(i, s.maxFailed())
		}
	}
	s.meta.Unlock()
	for k := range s.locks {
		s.locks[k].Unlock()
	}
	if err != nil {
		return report, err
	}

	// The sweep: scrub workers stride a shared cursor, each rebuilding its
	// stripe under that stripe's lock. Stripes complete out of order, so the
	// damage list is sorted afterwards.
	err = nvram.ForEach(context.Background(), s.scrubWorkers(), 0, stripes, func(stripe int64) error {
		return s.sweepStripe(stripe, i, &report)
	})
	slices.SortFunc(report.Lost, func(a, b DamagedRange) int { return cmp.Compare(a.Offset, b.Offset) })
	s.meta.Lock()
	s.sweeping = false
	switch {
	case !s.underRepair.Has(i):
		err = fmt.Errorf("core: repair of disk %d abandoned: the disk failed again", i)
	case err == nil:
		s.underRepair.Remove(i)
		s.failed.Remove(i)
	}
	s.meta.Unlock()
	// The sweep cleared marks in memory only; one image covers them all.
	if cerr := s.eng.Commit(); err == nil {
		err = cerr
	}
	return report, err
}

// sweepStripe rebuilds one stripe of a repair onto member i, under the
// stripe's lock, if i is still under repair and stale on it, and clears
// the stale mark. What it salvages goes into report and Stats even when
// it fails midway: a unit it zeroed reads back zeroed from then on.
func (s *Store) sweepStripe(stripe int64, i int, report *DamageReport) error {
	lk := s.stripeLock(stripe)
	lk.Lock()
	defer lk.Unlock()
	var part DamageReport
	defer func() {
		s.meta.Lock()
		report.Lost = append(report.Lost, part.Lost...)
		s.stats.DamagedStripes += uint64(len(part.Lost))
		s.stats.DamageBytes += part.Bytes()
		s.meta.Unlock()
	}()
	salvage := false
	for tries := 0; ; tries++ {
		s.meta.Lock()
		repairing := s.underRepair.Has(i) // FailDisk(i) abandons the repair
		s.meta.Unlock()
		if _, _, stale := s.eng.State(stripe); !repairing || !stale.Has(i) {
			return nil
		}
		var err error
		if !salvage {
			// A survivor's checksum mismatch is repaired and the stripe retried.
			err = s.repairing(func() error { return s.repairStripe(stripe, i) })
			// Fresh parities that cannot cover what is missing send the stripe
			// to salvage for good: a retry would solve the zeroes it wrote
			// from parities that do not encode them.
			salvage = errors.Is(err, ErrDataLoss)
		}
		if salvage {
			err = s.salvageStripe(stripe, i, &part)
		}
		if err == nil {
			// Under meta, which FailDisk holds while it stales i again.
			s.meta.Lock()
			if s.underRepair.Has(i) {
				s.eng.ClearStale(i, stripe)
			}
			if !salvage {
				s.stats.RecoveredStripes++
			}
			s.meta.Unlock()
			return nil
		}
		// A member's fail-stop failure is absorbed and the stripe retried;
		// the replacement's (FailDisk(i)) abandons the repair.
		if tries >= s.spanRetryBudget() || !s.absorbFailure(err) {
			return err
		}
	}
}

// salvageStripe handles a repair-sweep stripe whose missing data the
// fresh parities cannot cover: it was unredundant when the disk failed,
// or detected checksum corruption plus the dead disks exceed its
// redundancy. Every data unit that cannot be read back verified — a
// dead disk's, or a corrupt survivor's — is zeroed and reported lost,
// then the parities are recomputed over the zeroed image onto every
// reachable disk, so later reads and repairs see a consistent stripe
// (zeroes where data was lost) instead of garbage behind a stale
// parity; with all of them rewritten the stripe is fully redundant again
// and its mark is cleared. The mark comes first, as for any write: a
// salvage cut short leaves zeroes that its parities do not encode, and a
// resumed repair must salvage the stripe again, not solve through them.
// Caller holds the stripe lock.
func (s *Store) salvageStripe(stripe int64, target int, report *DamageReport) error {
	unit, off := s.geo.StripeUnit, s.geo.DiskOffset(stripe)
	if s.allPar != 0 {
		if err := s.eng.Mark(stripe); err != nil {
			return err
		}
	}
	st := s.stripeState(stripe)
	dead := st.failed
	dead.Remove(target) // stale here, but its replacement takes writes
	im := s.image(stripe)
	defer im.Release()
	for i, u := range im.Data {
		d := im.Member(i)
		if !st.failed.Has(d) {
			err := s.devRead(d, u, off)
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrChecksumMismatch) {
				return err
			}
			// Corrupt beyond repair: zeroed in place below (installing a
			// fresh slot) so the stripe converges instead of erroring forever.
		}
		clear(u)
		lost := DamagedRange{Offset: stripe*s.geo.StripeDataBytes() + int64(i)*unit, Length: unit, Stripe: stripe}
		if !slices.Contains(report.Lost, lost) { // reported by an earlier try
			report.Lost = append(report.Lost, lost)
		}
		if !dead.Has(d) {
			if err := s.devWrite(d, u, off); err != nil {
				return err
			}
		}
	}
	im.Encode()
	written := 0
	for j, par := range im.Par {
		d := im.Member(len(im.Data) + j)
		if dead.Has(d) {
			continue // a second dead disk; its own repair recomputes it
		}
		if err := s.devWrite(d, par, off); err != nil {
			return err
		}
		written++
	}
	if written == len(im.Par) {
		s.eng.Clear(stripe) // RepairDisk commits the marks once, after the sweep
	}
	return nil
}
