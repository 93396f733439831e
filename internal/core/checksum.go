package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"afraid/internal/bufpool"
	"afraid/internal/layout"
	"afraid/internal/parity"
)

// Member I/O and end-to-end block checksums. Every data and checksum slot
// I/O of a span goes through devReadRun and devWriteRun, under the op's
// context, its failures sorted into the member error classes (memberErr).
// With Options.Checksums every member disk reserves a trailer
// (layout.ChecksumTrailerBytes) holding one 8-byte slot per stripe: a
// magic tag plus the CRC32C (Castagnoli, from parity.CRC32C's dispatched
// kernel) of that disk's stripe unit. devWriteRun refreshes the slot from
// the in-memory buffer on every unit write — so a flip on the wire or the
// medium can never be blessed — and devReadRun verifies every unit it
// returns. A verify failure surfaces as a *UnitError and is handled
// exactly like a unit its member reports lost: reconstruct from
// redundancy, rewrite through with a fresh checksum, or report
// ErrDataLoss. Corruption is never served silently.
//
// Slot states: a valid magic gates the CRC comparison; anything else
// (torn slot write, scribbled trailer, all zeroes) is a mismatch and
// goes down the same repair path. Open formats absent (all-zero) slots
// with the CRC of a zero unit, which is correct because a checksummed
// store has checksums from birth — every never-written unit still
// holds zeroes.

// csumMagic tags a valid checksum slot ("AFC1").
const csumMagic = 0x41464331

// ErrChecksumMismatch marks a stripe unit whose contents do not match
// its stored checksum: silent corruption, detected.
var ErrChecksumMismatch = errors.New("core: block checksum mismatch")

// unitLossError reports a unit error that redundancy cannot undo. It
// wraps ErrDataLoss: detected-but-unrecoverable corruption is reported
// loss, the same contract as losing a disk under a dirty stripe.
func unitLossError(ue *UnitError) error {
	return fmt.Errorf("%w: stripe %d (disk %d: %v, beyond redundancy)", ErrDataLoss, ue.Stripe, ue.Disk, ue.Err)
}

// encodeSlot fills an 8-byte checksum slot for unit contents.
func encodeSlot(slot []byte, unit []byte) {
	binary.BigEndian.PutUint32(slot[0:4], csumMagic)
	binary.BigEndian.PutUint32(slot[4:8], parity.CRC32C(0, unit))
}

// slotMatches reports whether a checksum slot is valid and holds the
// CRC32C of unit.
func slotMatches(slot, unit []byte) bool {
	return binary.BigEndian.Uint32(slot[0:4]) == csumMagic &&
		binary.BigEndian.Uint32(slot[4:8]) == parity.CRC32C(0, unit)
}

// contextDevice is a device whose I/O takes the request's context — a
// cluster node behind a deadline, a fault-injected device. ReadAt and
// WriteAt hand it theirs.
type contextDevice interface {
	ReadAtContext(ctx context.Context, p []byte, off int64) (int, error)
	WriteAtContext(ctx context.Context, p []byte, off int64) (int, error)
}

// vecDevice is a member that takes buffers written back to back in one
// call — a cluster node, one request. devWriteRun hands it a run's units.
type vecDevice interface {
	WriteVecAtContext(ctx context.Context, bufs [][]byte, off int64) (int, error)
}

// vecs recycles the unit lists devWriteRun hands a vecDevice: a list
// handed to a device escapes to the heap, and handing it the caller's would
// make every caller's list escape, a run of one's built on the stack too.
var vecs = sync.Pool{New: func() any { return new([][]byte) }}

// ReadAt is one read of d under ctx, where d takes one. It is the one
// device read of core's members and of the tier's front copies.
func ReadAt(ctx context.Context, d BlockDevice, p []byte, off int64) (err error) {
	if cd, ok := d.(contextDevice); ok {
		_, err = cd.ReadAtContext(ctx, p, off)
	} else {
		_, err = d.ReadAt(p, off)
	}
	return err
}

// WriteAt is one write of d under ctx, where d takes one.
func WriteAt(ctx context.Context, d BlockDevice, p []byte, off int64) (err error) {
	if cd, ok := d.(contextDevice); ok {
		_, err = cd.WriteAtContext(ctx, p, off)
	} else {
		_, err = d.WriteAt(p, off)
	}
	return err
}

// devReadRun reads a run on member i from off (stripe.Members): units of
// consecutive stripes back to back, or a range inside one unit, one read
// per unit and none for a nil one. With Options.Checksums the units'
// slots, consecutive in the trailer, follow in one read, and each unit is
// verified whole against its own — a range through a pooled copy of its
// whole unit — a mismatch surfacing as a *UnitError; the member's run is
// one checksum_verify entry. Callers hold the stripe locks, which
// serialize a unit and its slot against writers of the stripe.
func (s *Store) devReadRun(ctx context.Context, i int, units [][]byte, off int64) error {
	unit := s.geo.StripeUnit
	dst, lo := units[0], off%unit
	var whole [1][]byte // a range's unit, read and verified whole
	if s.opts.Checksums {
		t0 := s.opts.now()
		defer func() { s.ob.csumVerify.Observe(s.opts.now().Sub(t0)) }()
		if len(units) == 1 && int64(len(dst)) < unit {
			whole[0] = bufpool.Get(int(unit))
			defer bufpool.Put(whole[0])
			units, off = whole[:], off-lo
		}
	}
	for j, u := range units {
		if at := off + int64(j)*unit; u != nil {
			if err := ReadAt(ctx, s.devs[i], u, at); err != nil {
				return s.memberErr(i, "read", at, len(u), err)
			}
		}
	}
	if !s.opts.Checksums {
		return nil
	}
	slots := bufpool.Get(len(units) * layout.ChecksumSlotSize)
	defer bufpool.Put(slots)
	if err := ReadAt(ctx, s.devs[i], slots, s.geo.ChecksumOff(off/unit)); err != nil {
		return s.memberErr(i, "read", off, len(units)*int(unit), err)
	}
	for j, u := range units {
		if u != nil && !slotMatches(slots[j*layout.ChecksumSlotSize:], u) {
			return &UnitError{Disk: i, Stripe: off/unit + int64(j), Err: ErrChecksumMismatch}
		}
	}
	if whole[0] != nil {
		copy(dst, whole[0][lo:])
	}
	return nil
}

// devWriteRun writes a run on member i from off (stripe.Members): in one
// call where it has several units and the member takes a vector
// (vecDevice), one write per unit otherwise, a failure sorted into the
// member error classes. With Options.Checksums the units' slots,
// consecutive in the trailer, follow in one write, from the in-memory
// contents. A range inside a unit first reads the old unit, verified:
// corruption under the untouched bytes must surface now (and be repaired
// by the caller's retry loop), not be patched over and blessed by the new
// slot.
func (s *Store) devWriteRun(ctx context.Context, i int, units [][]byte, off int64) error {
	return s.devWrite(ctx, i, units, off, nil)
}

// devWrite is devWriteRun, handed in old the whole unit under a range
// where the caller has read and verified it under the stripe lock already
// (preflightChecksums): the range lands over that, and the unit is not read
// again.
func (s *Store) devWrite(ctx context.Context, i int, units [][]byte, off int64, old []byte) error {
	unit := s.geo.StripeUnit
	n := len(units) * int(unit)
	var whole [1][]byte // a range's unit, as it stands once the range lands
	if len(units) == 1 && int64(len(units[0])) != unit {
		n = len(units[0])
		if s.opts.Checksums {
			lo := off % unit
			if whole[0] = old; old == nil {
				whole[0] = bufpool.Get(int(unit))
				defer bufpool.Put(whole[0])
				if err := s.devReadRun(ctx, i, whole[:], off-lo); err != nil {
					return err
				}
			}
			copy(whole[0][lo:], units[0])
		}
	}
	var err error
	if d, ok := s.devs[i].(vecDevice); ok && len(units) > 1 {
		vec := vecs.Get().(*[][]byte)
		*vec = append((*vec)[:0], units...)
		_, err = d.WriteVecAtContext(ctx, *vec, off)
		clear(*vec) // the pool must not keep the caller's memory alive
		vecs.Put(vec)
	} else {
		for j := 0; j < len(units) && err == nil; j++ {
			err = WriteAt(ctx, s.devs[i], units[j], off+int64(j)*unit)
		}
	}
	if err == nil && s.opts.Checksums {
		slots := bufpool.Get(len(units) * layout.ChecksumSlotSize)
		defer bufpool.Put(slots)
		if whole[0] != nil {
			units = whole[:]
		}
		for j, u := range units {
			encodeSlot(slots[j*layout.ChecksumSlotSize:], u)
		}
		err = WriteAt(ctx, s.devs[i], slots, s.geo.ChecksumOff(off/unit))
	}
	return s.memberErr(i, "write", off, n, err)
}

// verifyUnit re-reads disk i's unit of stripe: against its checksum slot
// when the store keeps them, and in any case as the member serves it, which
// may report it lost. Caller holds the stripe lock.
func (s *Store) verifyUnit(ctx context.Context, i int, stripe int64) error {
	whole := bufpool.Get(int(s.geo.StripeUnit))
	defer bufpool.Put(whole)
	return s.devReadRun(ctx, i, [][]byte{whole}, s.geo.DiskOffset(stripe))
}

// formatChecksums installs slots for units that have none yet: at first
// open every slot is zero, and after a crash during a previous format a
// suffix may still be. An absent slot means the unit was never written
// (checksummed stores carry checksums from birth), so its contents are
// zeroes and the zero-unit CRC is the right install. Whole members only;
// an absent member, or one with stale units, gets its slots rewritten by
// RepairDisk.
func (s *Store) formatChecksums() error {
	stripes := s.geo.Stripes()
	trailer := make([]byte, stripes*layout.ChecksumSlotSize)
	var zeroSlot [layout.ChecksumSlotSize]byte
	zero := make([]byte, s.geo.StripeUnit)
	var fresh [layout.ChecksumSlotSize]byte
	encodeSlot(fresh[:], zero)
	for i, d := range s.devs {
		if s.failed.Has(i) || s.eng.StaleCount(i) > 0 {
			continue
		}
		if _, err := d.ReadAt(trailer, s.geo.DiskSize); err != nil {
			return &DiskError{Disk: i, Op: "read", Err: err}
		}
		dirtied := false
		for st := int64(0); st < stripes; st++ {
			slot := trailer[st*layout.ChecksumSlotSize : (st+1)*layout.ChecksumSlotSize]
			if [layout.ChecksumSlotSize]byte(slot) == zeroSlot {
				copy(slot, fresh[:])
				dirtied = true
			}
		}
		if !dirtied {
			continue
		}
		if _, err := d.WriteAt(trailer, s.geo.DiskSize); err != nil {
			return &DiskError{Disk: i, Op: "write", Err: err}
		}
	}
	return nil
}

// absorbUnit is the span loops' counterpart of absorbFailure for unit
// errors: when err names a unit that failed verification or that its
// member reports lost, repair it in place from redundancy. It returns
// retry=true when the repair succeeded (or a member failed under it and was
// absorbed as absorbFailure would) and the caller should re-run the span;
// otherwise the error to surface (the original err when it was not a unit
// error, a loss error when redundancy could not cover the unit). Caller
// holds the unit's stripe lock.
func (s *Store) absorbUnit(ctx context.Context, err error) (retry bool, out error) {
	var ue *UnitError
	if !errors.As(err, &ue) {
		return false, err
	}
	rerr := s.repairUnit(ctx, ue)
	if rerr != nil && s.absorbFailure(rerr) {
		// A member fail-stopped under the repair. The caller's retry works
		// around it and meets the bad unit again, which then is repaired
		// beside the dead member, or reported lost, and counted.
		return true, nil
	}
	s.meta.Lock()
	defer s.meta.Unlock()
	s.stats.ChecksumDetected++
	switch {
	case rerr == nil:
		s.stats.ChecksumRepaired++
		return true, nil
	case errors.Is(rerr, ErrDataLoss):
		s.stats.ChecksumLost++
		s.rc.dropAll()
	}
	return false, rerr
}

// repairing runs op on a stripe whose lock the caller holds and, for as
// long as op trips over a unit error, repairs that unit from redundancy
// and runs op again — so no rebuild, repair or audit ever works over (and
// blesses) corrupt or lost bytes. It returns op's error, or the repair's
// when redundancy could not cover the unit.
func (s *Store) repairing(ctx context.Context, op func() error) error {
	for tries := 0; ; tries++ {
		err := op()
		if err == nil || tries >= s.spanRetryBudget() {
			return err
		}
		var retry bool
		if retry, err = s.absorbUnit(ctx, err); !retry {
			return err
		}
	}
}

// spanRetryBudget bounds the absorb-and-retry loops around span
// operations: enough for every member to fail or every unit of a
// stripe to be repaired once, plus slack for a nested repair.
func (s *Store) spanRetryBudget() int { return len(s.devs) + 2 }

// preflightChecksums is the write rule's reads for a write that keeps no
// parity in sync: it verifies the old contents under the partial extents
// before the stripe is marked. Ordering matters: a corruption discovered
// after the write's own mark would read as "dirty stripe, stale parity —
// unrecoverable" even though the stripe was clean and repairable a
// microsecond earlier. Full-unit extents need nothing (the overwrite
// installs a fresh slot), and a write with a sync set reads — and so
// verifies — what it folds before it marks (rmwSpan). The verified units
// land in old, which the write hands to devWrite: under the same stripe
// lock they cannot change, so each is read once.
func (s *Store) preflightChecksums(ctx context.Context, sp layout.StripeSpan, old *oldUnits) error {
	if !s.preflights(sp, 0) {
		return nil
	}
	for k, e := range sp.Extents {
		if e.Len < s.geo.StripeUnit {
			b := bufpool.Get(int(s.geo.StripeUnit))
			old.set(k, len(sp.Extents), b)
			if err := s.devReadRun(ctx, e.Disk, [][]byte{b}, s.geo.DiskOffset(sp.Stripe)); err != nil {
				return err
			}
		}
	}
	return nil
}

// oldUnits holds the whole old units a span's partial extents verified
// (preflightChecksums): only its first extent and its last can be partial.
type oldUnits [2][]byte

func (o *oldUnits) set(k, n int, b []byte) {
	if k == 0 {
		o[0] = b
	} else if k == n-1 {
		o[1] = b
	}
}

// of returns extent k's verified unit, or nil.
func (o *oldUnits) of(k, n int) []byte {
	switch {
	case k == 0:
		return o[0]
	case k == n-1:
		return o[1]
	}
	return nil
}

// release returns the units to the pool.
func (o *oldUnits) release() {
	for _, b := range o {
		if b != nil {
			bufpool.Put(b)
		}
	}
}

// preflights reports whether a write of the span, to a stripe with sync
// count n, has old contents to verify before it marks
// (preflightChecksums): the request-level mark leaves such a span to mark
// itself, in that order.
func (s *Store) preflights(sp layout.StripeSpan, n uint8) bool {
	if !s.opts.Checksums || n != 0 {
		return false
	}
	for _, e := range sp.Extents {
		if e.Len < s.geo.StripeUnit {
			return true
		}
	}
	return false
}
