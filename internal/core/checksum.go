package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"afraid/internal/bufpool"
	"afraid/internal/layout"
	"afraid/internal/parity"
)

// End-to-end block checksums. With Options.Checksums every member disk
// reserves a trailer (layout.ChecksumTrailerBytes) holding one 8-byte
// slot per stripe: a magic tag plus the CRC32C (Castagnoli, from
// parity.CRC32C's dispatched kernel) of that disk's stripe unit. devWrite
// refreshes the slot from the in-memory buffer on every unit write —
// so a flip on the wire or the medium can never be blessed — and
// devRead verifies every unit it returns. A verify failure surfaces as
// a *UnitError and is handled exactly like a fail-stop member on
// that one unit: reconstruct from redundancy, rewrite through with a
// fresh checksum, or report ErrDataLoss. Corruption is never served
// silently.
//
// Slot states: a valid magic gates the CRC comparison; anything else
// (torn slot write, scribbled trailer, all zeroes) is a mismatch and
// goes down the same repair path. Open formats absent (all-zero) slots
// with the CRC of a zero unit, which is correct because a checksummed
// store has checksums from birth — every never-written unit still
// holds zeroes.

// csumMagic tags a valid checksum slot ("AFC1").
const csumMagic = 0x41464331

// slotPool recycles the 8-byte slot buffers the hot paths hand to
// device ReadAt/WriteAt. The interface call makes a stack-declared
// slot escape, which costs one heap allocation per unit verified or
// written — per-unit garbage that group scrubs and checksummed spans
// generate by the thousand.
var slotPool = sync.Pool{New: func() any { return new([layout.ChecksumSlotSize]byte) }}

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

// readSlot reads disk i's checksum slot for a stripe. Device errors
// come back as DiskErrors so fail-stop members degrade normally.
func (s *Store) readSlot(i int, stripe int64, slot []byte) error {
	if _, err := s.devs[i].ReadAt(slot, s.geo.ChecksumOff(stripe)); err != nil {
		return &DiskError{Disk: i, Op: "read", Err: err}
	}
	return nil
}

// putChecksum writes a fresh checksum slot for disk i's unit of stripe,
// computed from the in-memory contents the caller just wrote.
func (s *Store) putChecksum(i int, stripe int64, unit []byte) error {
	slot := slotPool.Get().(*[layout.ChecksumSlotSize]byte)
	defer slotPool.Put(slot)
	encodeSlot(slot[:], unit)
	if _, err := s.devs[i].WriteAt(slot[:], s.geo.ChecksumOff(stripe)); err != nil {
		return &DiskError{Disk: i, Op: "write", Err: err}
	}
	return nil
}

// verifyAgainstSlot checks unit contents against disk i's stored slot.
func (s *Store) verifyAgainstSlot(i int, stripe int64, unit []byte) error {
	slot := slotPool.Get().(*[layout.ChecksumSlotSize]byte)
	defer slotPool.Put(slot)
	if err := s.readSlot(i, stripe, slot[:]); err != nil {
		return err
	}
	if binary.BigEndian.Uint32(slot[0:4]) != csumMagic ||
		binary.BigEndian.Uint32(slot[4:8]) != parity.CRC32C(0, unit) {
		return &UnitError{Disk: i, Stripe: stripe, Err: ErrChecksumMismatch}
	}
	return nil
}

// devReadVerified is the checksummed read path: return the requested
// range only after the whole stripe unit it lives in checks out against
// its slot. Partial reads verify over a pooled full-unit buffer.
// Callers hold the stripe lock, which serializes the unit+slot pair
// against concurrent writers of the same stripe.
func (s *Store) devReadVerified(i int, p []byte, off int64) error {
	unit := s.geo.StripeUnit
	stripe := off / unit
	t0 := time.Now()
	defer func() { s.ob.csumVerify.Observe(time.Since(t0)) }()
	if off%unit == 0 && int64(len(p)) == unit {
		if _, err := s.devs[i].ReadAt(p, off); err != nil {
			return &DiskError{Disk: i, Op: "read", Err: err}
		}
		return s.verifyAgainstSlot(i, stripe, p)
	}
	whole := bufpool.Get(int(unit))
	defer bufpool.Put(whole)
	if _, err := s.devs[i].ReadAt(whole, stripe*unit); err != nil {
		return &DiskError{Disk: i, Op: "read", Err: err}
	}
	if err := s.verifyAgainstSlot(i, stripe, whole); err != nil {
		return err
	}
	copy(p, whole[off-stripe*unit:])
	return nil
}

// devWriteChecksummed is the checksummed write path: land the data,
// then refresh the slot from the in-memory image. A partial write first
// does a verified read of the old unit — corruption under the
// untouched bytes must surface now (and be repaired by the caller's
// retry loop), not be patched over and blessed by the new slot.
func (s *Store) devWriteChecksummed(i int, p []byte, off int64) error {
	unit := s.geo.StripeUnit
	stripe := off / unit
	if off%unit == 0 && int64(len(p)) == unit {
		if _, err := s.devs[i].WriteAt(p, off); err != nil {
			return s.memberErr(i, "write", off, err)
		}
		return s.putChecksum(i, stripe, p)
	}
	whole := bufpool.Get(int(unit))
	defer bufpool.Put(whole)
	if err := s.devReadVerified(i, whole, stripe*unit); err != nil {
		return err
	}
	copy(whole[off-stripe*unit:], p)
	if _, err := s.devs[i].WriteAt(p, off); err != nil {
		return s.memberErr(i, "write", off, err)
	}
	return s.putChecksum(i, stripe, whole)
}

// verifyUnit re-reads disk i's unit of stripe: against its checksum slot
// when the store keeps them, and in any case as the member serves it, which
// may report it lost. Caller holds the stripe lock.
func (s *Store) verifyUnit(i int, stripe int64) error {
	unit := s.geo.StripeUnit
	whole := bufpool.Get(int(unit))
	defer bufpool.Put(whole)
	return s.devRead(context.Background(), i, whole, stripe*unit)
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
// verifies — what it folds before it marks (rmwSpan).
func (s *Store) preflightChecksums(sp layout.StripeSpan) error {
	if !s.preflights(sp, 0) {
		return nil
	}
	for _, e := range sp.Extents {
		if e.Len < s.geo.StripeUnit {
			if err := s.verifyUnit(e.Disk, sp.Stripe); err != nil {
				return err
			}
		}
	}
	return nil
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

// QuarantinedStripes returns the stripes held dirty by unrecoverable
// checksum corruption, ascending: scrubOne put them on hold in the
// engine. They read as ErrDataLoss until overwritten.
func (s *Store) QuarantinedStripes() []int64 { return s.eng.Held() }
