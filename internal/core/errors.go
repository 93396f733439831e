package core

import (
	"errors"
	"fmt"
)

// DiskError wraps an I/O error from one member disk with the disk's
// index, so the degraded-mode machinery can tell *which* member failed.
// Every device read and write of a span goes through devReadRun and
// devWriteRun (checksum.go), which produce DiskErrors; the foreground
// paths use errors.As + errors.Is(ErrDeviceFailed) on them to absorb
// fail-stop failures (including wrapped errors injected by internal/fault)
// and retry the operation degraded.
type DiskError struct {
	Disk int
	Op   string // "read" or "write"
	Err  error
}

// Error implements error.
func (e *DiskError) Error() string {
	return fmt.Sprintf("core: disk %d %s: %v", e.Disk, e.Op, e.Err)
}

// Unwrap exposes the underlying device error to errors.Is/As.
func (e *DiskError) Unwrap() error { return e.Err }

// UnitError names one member's unit of one stripe whose bytes cannot be
// trusted while the member itself is fine: they fail checksum verification
// (Err is ErrChecksumMismatch), or the member reports them lost (Err wraps
// the member's own ErrDataLoss — a cluster node whose array cannot cover
// them). Either way absorbUnit solves the unit from redundancy and rewrites
// it; absorbFailure never kills the member for it.
type UnitError struct {
	Disk   int
	Stripe int64
	Err    error
}

// Error implements error.
func (e *UnitError) Error() string {
	return fmt.Sprintf("core: disk %d stripe %d: %v", e.Disk, e.Stripe, e.Err)
}

// Unwrap exposes the cause to errors.Is.
func (e *UnitError) Unwrap() error { return e.Err }

// memberErr sorts an error member i returned for an I/O of n bytes at off
// into the store's three classes: fail-stop — anything wrapping
// ErrDeviceFailed — is a DiskError that absorbFailure turns into the
// member's absence; unit lost — the member's own ErrDataLoss, for an I/O
// inside one unit — is a UnitError that absorbUnit repairs like a checksum
// mismatch; anything else is a DiskError that passes through, a loss
// somewhere in a many-unit I/O among them: a run's caller serves its spans
// one by one, and meets the unit alone.
func (s *Store) memberErr(i int, op string, off int64, n int, err error) error {
	if err == nil {
		return nil
	}
	if unit := s.geo.StripeUnit; errors.Is(err, ErrDataLoss) && off/unit == (off+int64(max(n, 1))-1)/unit {
		return &UnitError{Disk: i, Stripe: off / s.geo.StripeUnit, Err: err}
	}
	return &DiskError{Disk: i, Op: op, Err: err}
}

// absorbFailure inspects an error from a span operation and, when it is
// a member disk reporting fail-stop failure (anything wrapping
// ErrDeviceFailed — matched with errors.Is so injected errors wrapped by
// fault layers count), moves the store to degraded mode. It reports
// whether the failure was absorbed, in which case the caller may retry
// the span: reads reconstruct around the dead disk, writes switch to the
// synchronous degraded protocol.
func (s *Store) absorbFailure(err error) bool {
	d := failStop(err)
	return d >= 0 && s.FailDisk(d) == nil
}

// failStop returns the member whose fail-stop failure err reports, or -1.
func failStop(err error) int {
	var de *DiskError
	if !errors.As(err, &de) || !errors.Is(de.Err, ErrDeviceFailed) {
		return -1
	}
	return de.Disk
}

// opError is what a client operation returns for err. A member's fail-stop
// failure that the store did not absorb — FailDisk refused it, as many
// members being absent as the layout has parities — is ErrTooManyFailures,
// wrapping err: more members gone than parities reaches the caller as one
// class, whether the store learnt of the last one before the operation or
// during it.
func (s *Store) opError(err error) error {
	if d := failStop(err); d >= 0 && !errors.Is(err, ErrTooManyFailures) && !s.Absent(d) {
		return fmt.Errorf("%w: %w", ErrTooManyFailures, err)
	}
	return err
}
