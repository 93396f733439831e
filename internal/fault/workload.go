package fault

import (
	"errors"
	"fmt"

	"afraid/internal/core"
)

// alignedFrac is the share of workload ops that cover one to three whole
// stripes, stripe-aligned: the shape the store's full-stripe write takes,
// and a degraded read solves in place.
const alignedFrac = 0.15

// runWorkload issues ops seeded random reads and writes against the
// store, maintaining the shadow model. It returns cut=true when a
// power cut ended the run. Reads are verified live: a determinate byte
// that comes back wrong is an immediate violation.
func (e *episode) runWorkload(ops int) (cut bool, err error) {
	capacity := e.st.Capacity()
	for i := 0; i < ops; i++ {
		if e.line.IsCut() {
			return true, nil
		}
		length := 1 + e.rng.Int63n(e.cfg.MaxIO)
		if length > capacity {
			length = capacity
		}
		off := e.rng.Int63n(capacity - length + 1)
		if e.rng.Float64() < alignedFrac {
			sdb := e.geo.StripeDataBytes()
			n := min(1+e.rng.Int63n(3), e.geo.Stripes())
			length, off = n*sdb, e.rng.Int63n(e.geo.Stripes()-n+1)*sdb
		}

		if e.rng.Float64() < e.cfg.WriteFrac {
			p := make([]byte, length)
			e.rng.Read(p)
			if _, werr := e.st.WriteAt(p, off); werr != nil {
				// The store did not acknowledge the write: the range may
				// hold old bytes, new bytes, or a torn mix, and the
				// stripes it spans may carry inconsistent parity.
				e.res.FailedWrites++
				e.sh.clobber(off, length)
				if errors.Is(werr, ErrPowerCut) {
					if e.cfg.Checksums && len(e.st.DeadDisks()) > 0 {
						// A degraded store writes whole units. One the cut
						// tore under its checksum is rebuilt at recovery, all
						// of it, through parity the same cut left
						// inconsistent: the units the write touched are
						// indeterminate to their boundaries.
						u := e.geo.StripeUnit
						lo := off / u * u
						e.sh.distrust(lo, (off+length+u-1)/u*u-lo)
					}
					return true, nil
				}
				if !errors.Is(werr, core.ErrDataLoss) && !errors.Is(werr, core.ErrTooManyFailures) {
					return false, fmt.Errorf("fault: workload write [%d,%d): %w", off, off+length, werr)
				}
				continue
			}
			e.res.AckedWrites++
			e.sh.write(off, p)
			continue
		}

		p := make([]byte, length)
		if _, rerr := e.st.ReadAt(p, off); rerr != nil {
			if errors.Is(rerr, ErrPowerCut) {
				return true, nil
			}
			if errors.Is(rerr, core.ErrDataLoss) {
				if lossAllowed := e.liveLossAllowed(off, length); !lossAllowed {
					e.res.violate("live read [%d,%d) lost (%v) with no unredundant stripe in range", off, off+length, rerr)
				}
				continue
			}
			return false, fmt.Errorf("fault: workload read [%d,%d): %w", off, off+length, rerr)
		}
		e.checkLiveRead(off, p)
	}
	return false, nil
}

// liveLossAllowed reports whether a data-loss error on a live read of
// [off, off+n) is legal: a member is down and some stripe in the range
// is currently unredundant (or under an unacknowledged write). When the
// schedule injects bit flips, any reported loss is legal — detecting
// and refusing to serve corruption is exactly the contract under test.
func (e *episode) liveLossAllowed(off, n int64) bool {
	if e.csumArmed() {
		return true
	}
	if len(e.st.DeadDisks()) == 0 {
		return false
	}
	dirtyNow := make(map[int64]bool)
	for _, st := range e.st.DirtyList() {
		dirtyNow[st] = true
	}
	sdb := e.geo.StripeDataBytes()
	for stp := off / sdb; stp <= (off+n-1)/sdb; stp++ {
		if dirtyNow[stp] || e.dirtyUnion[stp] || e.sh.holes[stp] {
			return true
		}
	}
	return false
}

// checkLiveRead compares a successful read against the shadow model.
// Mismatches on hole stripes are excused only while a member is down
// (degraded reconstruction may pass through inconsistent parity).
func (e *episode) checkLiveRead(off int64, got []byte) {
	degraded := len(e.st.DeadDisks()) > 0
	for i, b := range got {
		pos := off + int64(i)
		if !e.sh.det[pos] || e.sh.data[pos] == b {
			continue
		}
		stripe := pos / e.sh.sdb
		if degraded && e.sh.holes[stripe] {
			continue
		}
		e.res.violate("live read: byte %d (stripe %d) diverged from acknowledged write", pos, stripe)
		return
	}
}
