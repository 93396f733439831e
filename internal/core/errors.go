package core

import (
	"context"
	"errors"
	"fmt"
)

// DiskError wraps an I/O error from one member disk with the disk's
// index, so the degraded-mode machinery can tell *which* member failed.
// Every device read and write in the store goes through devRead/devWrite
// below, which produce DiskErrors; the foreground paths use
// errors.As + errors.Is(ErrDeviceFailed) on them to absorb fail-stop
// failures (including wrapped errors injected by internal/fault) and
// retry the operation degraded.
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

// contextDevice is a member whose I/O takes the request's context — a
// cluster node behind a deadline. devRead and devWrite hand it theirs.
type contextDevice interface {
	ReadAtContext(ctx context.Context, p []byte, off int64) (int, error)
	WriteAtContext(ctx context.Context, p []byte, off int64) (int, error)
}

// devRead reads from member disk i under ctx, sorting a failure into the
// member error classes (memberErr). With Options.Checksums the unit's
// contents are verified against its checksum slot and a mismatch surfaces
// as a *UnitError (see checksum.go).
func (s *Store) devRead(ctx context.Context, i int, p []byte, off int64) error {
	if s.opts.Checksums {
		return s.devReadVerified(i, p, off)
	}
	var err error
	if d, ok := s.devs[i].(contextDevice); ok {
		_, err = d.ReadAtContext(ctx, p, off)
	} else {
		_, err = s.devs[i].ReadAt(p, off)
	}
	return s.memberErr(i, "read", off, err)
}

// devWrite writes to member disk i under ctx, sorting a failure into the
// member error classes. With Options.Checksums the unit's checksum slot is
// refreshed from the in-memory contents, so corruption on the wire or the
// medium is caught by the next verified read.
func (s *Store) devWrite(ctx context.Context, i int, p []byte, off int64) error {
	if s.opts.Checksums {
		return s.devWriteChecksummed(i, p, off)
	}
	var err error
	if d, ok := s.devs[i].(contextDevice); ok {
		_, err = d.WriteAtContext(ctx, p, off)
	} else {
		_, err = s.devs[i].WriteAt(p, off)
	}
	return s.memberErr(i, "write", off, err)
}

// memberErr sorts an error member i returned for an I/O at off into the
// store's three classes: fail-stop — anything wrapping ErrDeviceFailed — is
// a DiskError that absorbFailure turns into the member's absence; unit lost
// — the member's own ErrDataLoss — is a UnitError that absorbUnit repairs
// like a checksum mismatch; anything else is a DiskError that passes
// through.
func (s *Store) memberErr(i int, op string, off int64, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrDataLoss) {
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
	var de *DiskError
	if !errors.As(err, &de) || !errors.Is(de.Err, ErrDeviceFailed) {
		return false
	}
	return s.FailDisk(de.Disk) == nil
}
