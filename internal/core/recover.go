package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

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
	return nil
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
// After a successful repair the array is fully redundant again.
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
	s.meta.Lock()
	if s.closed {
		s.meta.Unlock()
		return report, ErrClosed
	}
	if !s.failed.Has(i) {
		s.meta.Unlock()
		return report, fmt.Errorf("core: disk %d is not a failed disk", i)
	}
	if s.repDisk >= 0 {
		s.meta.Unlock()
		return report, fmt.Errorf("core: repair of disk %d already in progress", s.repDisk)
	}
	// Publish the sweep so concurrent degraded writes mirror already-
	// repaired stripes onto the replacement (see repairTarget).
	s.repDisk, s.repDev, s.repDone = i, replacement, nvram.NewBitmap(s.geo.Stripes())
	s.meta.Unlock()

	// The sweep: scrub workers stride a shared cursor, each rebuilding its
	// stripe under that stripe's lock. Stripes complete out of order, which
	// is why repDone is a bitmap and the damage list is sorted afterwards.
	var mu sync.Mutex // guards report while the sweep runs
	err := nvram.ForEach(context.Background(), s.scrubWorkers(), 0, s.geo.Stripes(), func(stripe int64) error {
		lk := s.stripeLock(stripe)
		lk.Lock()
		defer lk.Unlock()
		// A survivor failing checksum verification mid-repair is itself
		// repaired from whatever redundancy remains and the stripe retried.
		err := s.repairing(func() error { return s.repairStripe(stripe, i, replacement) })
		if errors.Is(err, ErrDataLoss) {
			// The fresh parities cannot cover what is missing — the stripe
			// was unredundant at failure time, or corruption plus the dead
			// disks exceed its redundancy: salvage what is readable, zero
			// and report the rest.
			var part DamageReport
			err = s.salvageStripe(stripe, i, replacement, &part)
			mu.Lock()
			report.Lost = append(report.Lost, part.Lost...)
			mu.Unlock()
		}
		if err == nil {
			// Set the done bit while still holding the stripe lock, so a
			// writer acquiring it next observes the bit and mirrors its
			// update onto the replacement.
			s.meta.Lock()
			s.repDone.Mark(stripe)
			s.meta.Unlock()
		}
		return err
	})
	if err != nil {
		s.meta.Lock()
		s.repDisk, s.repDev, s.repDone = -1, nil, nil
		s.meta.Unlock()
		return DamageReport{}, err
	}
	sort.Slice(report.Lost, func(a, b int) bool {
		return report.Lost[a].Offset < report.Lost[b].Offset
	})

	// Swap under a full stripe-lock barrier. An in-flight degraded span
	// snapshots the dead set at entry; if the swap overlapped such a
	// span, its update could fall between the mirror path (repair no
	// longer published) and the normal path (swap not yet observed) and
	// be lost. Holding every lock in the pool drains in-flight spans
	// first; new ones then see the healthy array.
	for k := range s.locks {
		s.locks[k].Lock()
	}
	s.meta.Lock()
	s.devs[i] = replacement
	s.failed.Remove(i)
	s.repDisk, s.repDev, s.repDone = -1, nil, nil
	s.stats.DamagedStripes += uint64(len(report.Lost))
	s.stats.DamageBytes += report.Bytes()
	s.meta.Unlock()
	// The sweep cleared marks in memory only; one image covers them all.
	err = s.eng.Commit()
	for k := range s.locks {
		s.locks[k].Unlock()
	}
	return report, err
}

// bumpRecovered counts an exactly-reconstructed stripe.
func (s *Store) bumpRecovered() {
	s.meta.Lock()
	s.stats.RecoveredStripes++
	s.meta.Unlock()
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
// and its mark is cleared. Caller holds the stripe lock.
func (s *Store) salvageStripe(stripe int64, target int, replacement BlockDevice, report *DamageReport) error {
	unit := s.geo.StripeUnit
	st := s.stripeState(stripe)
	im := s.image(stripe)
	defer im.Release()
	lose := func(i int) {
		clear(im.Data[i])
		report.Lost = append(report.Lost, DamagedRange{
			Offset: stripe*s.geo.StripeDataBytes() + int64(i)*unit,
			Length: unit,
			Stripe: stripe,
		})
	}
	for i, u := range im.Data {
		d := im.Member(i)
		if st.failed.Has(d) {
			lose(i)
			if d == target {
				if err := s.writeUnitTo(replacement, stripe, u); err != nil {
					return err
				}
			}
			continue
		}
		err := s.devRead(d, u, s.geo.DiskOffset(stripe))
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrChecksumMismatch) {
			return err
		}
		// Corrupt beyond repair: zero it in place (installing a fresh
		// slot) so the stripe converges instead of erroring forever.
		lose(i)
		if werr := s.devWrite(d, u, s.geo.DiskOffset(stripe)); werr != nil {
			return werr
		}
	}
	im.Encode()
	written := 0
	for j, par := range im.Par {
		d := im.Member(len(im.Data) + j)
		var err error
		switch {
		case d == target:
			err = s.writeUnitTo(replacement, stripe, par)
		case st.failed.Has(d):
			continue // a second dead disk; its own repair recomputes it
		default:
			err = s.devWrite(d, par, s.geo.DiskOffset(stripe))
		}
		if err != nil {
			return err
		}
		written++
	}
	if written == len(im.Par) {
		s.eng.Clear(stripe) // RepairDisk commits the marks once, after the sweep
	}
	return nil
}
