package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"afraid/internal/layout"
	"afraid/internal/nvram"
)

// Failer is implemented by devices that can be switched into a
// fail-stop state (MemDevice, fault-injection wrappers). FailDisk uses
// it to make the device itself start erroring, not just the store's
// bookkeeping.
type Failer interface {
	Fail()
}

// FailDisk makes disk i absent: a fail-stop failure, injected or
// absorbed. Reads of its units are served degraded (for clean stripes),
// and a write that stores a stripe around it marks it stale there first,
// in the marking memory, so that it comes back (RepairDisk) rebuilding only
// what it missed. The store absorbs one absent member per parity unit of
// its layout (a RAID 0 store tracks one, every unit of which is lost).
func (s *Store) FailDisk(i int) error {
	if i < 0 || i >= len(s.devs) {
		return fmt.Errorf("core: disk %d out of range", i)
	}
	s.meta.Lock()
	var err error
	switch {
	case s.closed:
		err = ErrClosed
	case !s.failed.Has(i) && !s.failed.Add(i, s.maxFailed()):
		err = ErrTooManyFailures
	}
	dev := s.devs[i]
	s.meta.Unlock()
	if f, ok := dev.(Failer); ok && err == nil {
		f.Fail() // outside meta: a member's Fail may call out (a cluster node's logs)
	}
	return err
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

// RepairDisk brings member i back whole onto dev, rebuilding the units
// the engine holds stale on it: a clean stripe's exactly, from the
// others; a dirty stripe's parity unit from the data; a dirty stripe's
// data unit is gone — zero-filled, the parity recomputed over it, and the
// range recorded in the damage report (salvage).
//
// dev already in slot i is the member coming back — from an outage, or to
// resume a repair a crash, a Close or an error stopped — and only its
// stale map is swept: what was written around it, and what an earlier
// sweep did not reach. Any other dev is a replacement, marked stale on
// every stripe in the marking memory before it is installed; one for a
// member that is not absent is refused while the member holds a data unit
// of a marked stripe it is not stale on, which no parity may encode.
//
// Either way i is a member again at once, missing only where it is stale.
// The sweep absorbs another member's fail-stop failure and retries the
// stripe; i's own, or FailDisk(i), abandons the repair. A stripe that
// would need an absent member beyond the redundancy is left stale, with
// ErrTooManyFailures. Any other error stops the sweep. i stays in
// DeadDisks until a repair succeeds, and a failed one returns with its
// error the report of what it salvaged, counted in Stats as a finished
// one's is.
func (s *Store) RepairDisk(i int, dev BlockDevice) (DamageReport, error) {
	return s.RepairDiskContext(context.Background(), i, dev)
}

// RepairDiskContext is RepairDisk with cancellation, checked between the
// stripes of the sweep; the stripes it has not reached stay stale.
func (s *Store) RepairDiskContext(ctx context.Context, i int, dev BlockDevice) (DamageReport, error) {
	return s.repair(ctx, i, dev, true)
}

// RebuildDisk is RepairDiskContext without the salvage, for a member that
// comes back with nobody to take a damage report: a stale unit redundancy
// cannot rebuild stays stale, and reads as lost, until a write replaces it
// or RepairDisk salvages it and reports the loss.
func (s *Store) RebuildDisk(ctx context.Context, i int, dev BlockDevice) error {
	_, err := s.repair(ctx, i, dev, false)
	return err
}

func (s *Store) repair(ctx context.Context, i int, dev BlockDevice, salvage bool) (DamageReport, error) {
	var report DamageReport
	if i < 0 || i >= len(s.devs) {
		return report, fmt.Errorf("core: disk %d out of range", i)
	}
	need := s.geo.DiskSize
	if s.opts.Checksums {
		need += s.geo.ChecksumTrailerBytes()
	}
	if dev.Size() < need {
		return report, fmt.Errorf("core: replacement size %d smaller than member size %d", dev.Size(), need)
	}
	// Install under every stripe lock: devRead and devWrite read s.devs[i]
	// holding a stripe lock but not meta, and a span that snapshotted the
	// array before i failed may still be in one on the old device.
	for k := range s.locks {
		s.locks[k].Lock()
	}
	s.meta.Lock()
	var err error
	switch {
	case s.closed:
		err = ErrClosed
	case s.sweeping.Has(i):
		err = fmt.Errorf("core: a repair of disk %d is already in progress", i)
	case s.devs[i] == dev:
	case !s.failed.Has(i) && s.holdsUnencoded(i):
		err = fmt.Errorf("core: disk %d holds writes no other member encodes: fail it before replacing it", i)
	default:
		if err = s.eng.MarkStale(i, 0, s.geo.Stripes()); err == nil {
			s.devs[i] = dev
		}
	}
	if err == nil {
		s.failed.Remove(i)
		s.sweeping |= 1 << i
	}
	s.meta.Unlock()
	for k := range s.locks {
		s.locks[k].Unlock()
	}
	if err != nil {
		return report, err
	}

	// The sweep: scrub workers stride the stale map, each rebuilding its
	// stripe under that stripe's lock. Stripes complete out of order, so the
	// damage list is sorted afterwards.
	var left int64 // stripes left stale; guarded by meta
	stale := s.eng.StaleUnits(i)
	err = nvram.ForEach(ctx, s.scrubWorkers(), 0, int64(len(stale)), func(k int64) error {
		return s.sweepStripe(ctx, stale[k], i, salvage, &report, &left)
	})
	slices.SortFunc(report.Lost, func(a, b DamagedRange) int { return cmp.Compare(a.Offset, b.Offset) })
	s.meta.Lock()
	s.sweeping &^= 1 << i
	switch {
	case s.failed.Has(i):
		err = fmt.Errorf("core: repair of disk %d abandoned: the disk failed again", i)
	case err == nil && left > 0:
		err = fmt.Errorf("core: repair of disk %d left %d stripes stale: %w", i, left, ErrTooManyFailures)
	}
	s.meta.Unlock()
	// The sweep cleared marks in memory only; one image covers them all.
	if cerr := s.eng.Commit(); err == nil {
		err = cerr
	}
	return report, err
}

// holdsUnencoded reports whether member i holds a current data unit of a
// marked stripe: one no parity may encode.
func (s *Store) holdsUnencoded(i int) bool {
	for _, st := range s.eng.Marked() {
		role, _ := s.geo.RoleOf(st, i)
		if _, _, stale := s.eng.State(st); role == layout.Data && !stale.Has(i) {
			return true
		}
	}
	return false
}

// sweepStripe rebuilds one stripe of a repair onto member i, under the
// stripe's lock, if i is still present and stale on it (rebuildStale),
// absorbing a fail-stop and repairing a bad unit as the span loop does. A
// stripe that needs an absent member beyond the redundancy, or salvage when
// the repair does not salvage, is counted in left and stays stale. What it
// salvages goes into report and Stats even when it fails midway: a unit it
// zeroed reads back zeroed from then on.
func (s *Store) sweepStripe(ctx context.Context, stripe int64, i int, salvage bool, report *DamageReport, left *int64) error {
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
	salvaging := false
	for tries := 0; ; tries++ {
		s.meta.Lock()
		closed, absent := s.closed, s.failed.Has(i)
		s.meta.Unlock()
		switch {
		case closed:
			return ErrClosed
		case absent: // FailDisk(i) abandons the repair
			return fmt.Errorf("core: repair of disk %d abandoned: the disk failed again", i)
		}
		if _, _, stale := s.eng.State(stripe); !stale.Has(i) {
			return nil
		}
		err := s.rebuildStale(ctx, stripe, salvaging, &part)
		retry := false
		if err != nil && tries < s.spanRetryBudget() {
			if retry = s.absorbFailure(err); !retry {
				retry, err = s.absorbUnit(ctx, err)
			}
		}
		if !retry && !salvaging && errors.Is(err, ErrDataLoss) {
			// Fresh parities that cannot cover what is missing send the stripe
			// to salvage for good (a retry would solve the zeroes it wrote from
			// parities that do not encode them), or leave it stale.
			salvaging, retry, err = true, salvage, tooMany(stripe)
		}
		switch {
		case retry:
			continue
		case errors.Is(err, ErrTooManyFailures):
			s.meta.Lock()
			*left++
			s.meta.Unlock()
			return nil
		}
		return err
	}
}

// rebuildStale writes back the image of a stripe stale on a present member
// (writeImage). One whose missing data the fresh parities cannot cover —
// unredundant at failure time, or with no parity — is ErrDataLoss, and
// salvaging it lays zeroes over every data unit that cannot be read back
// whole (a missing member's, a bad one's) and reports them lost, so later
// reads see zeroes where data was lost, not garbage behind stale parity.
// Caller holds the stripe lock.
func (s *Store) rebuildStale(ctx context.Context, stripe int64, salvaging bool, report *DamageReport) error {
	st := s.stripeState(stripe)
	switch {
	case st.over:
		return tooMany(stripe)
	case !salvaging:
		return s.writeImage(ctx, st, nil, 0, layout.StripeSpan{Stripe: stripe})
	}
	im := s.image(ctx, stripe)
	defer im.Release()
	sdb := s.geo.StripeDataBytes()
	sp := s.geo.Split(stripe*sdb, sdb)[0]
	err := im.Load(st.failed, 0, 0, s.geo.StripeUnit)
	if err != nil && !errors.As(err, new(*UnitError)) {
		return err
	}
	lost := sp.Extents[:0]
	for _, e := range sp.Extents {
		if !st.failed.Has(e.Disk) {
			if err == nil {
				continue
			}
			// A unit is bad beyond repair: read each to find every such unit.
			if rerr := s.devRead(ctx, e.Disk, im.Data[e.DataIdx], e.DiskOff); rerr == nil {
				continue
			} else if !errors.As(rerr, new(*UnitError)) {
				return rerr
			}
		}
		lost = append(lost, e)
		if r := (DamagedRange{Offset: e.ArrOff, Length: e.Len, Stripe: stripe}); !slices.Contains(report.Lost, r) {
			report.Lost = append(report.Lost, r) // or reported by an earlier try
		}
	}
	sp.Extents = lost
	return s.writeBack(im, st, nil, 0, sp)
}
