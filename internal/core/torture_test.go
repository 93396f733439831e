package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// The torture test drives a store through long random sequences of
// writes, reads, flushes, parity points, crashes (close + reopen with
// the same devices and NVRAM), disk failures, and repairs, checking
// after every step against an in-memory reference image plus a model of
// which bytes are legitimately lost. It is the strongest correctness
// statement in the package: AFRAID loses exactly the stripe units that
// the paper says it loses, and nothing else, under any interleaving.

// tortureRNG is a tiny deterministic generator (no math/rand, keeps
// replays stable across Go versions).
type tortureRNG uint64

func (r *tortureRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = tortureRNG(x)
	return x
}

func (r *tortureRNG) intn(n int) int { return int(r.next() % uint64(n)) }

type tortureState struct {
	t    *testing.T
	rng  tortureRNG
	mode Mode
	csum bool // run with Options.Checksums and inject bit flips
	devs []BlockDevice
	nv   *MemNVRAM
	s    *Store
	img  []byte         // reference contents
	lost map[int64]bool // client unit offsets legitimately lost
	dead map[int]bool
	unit int64
	sb   int64 // stripe data bytes

	flippedParity bool // latent parity flips outstanding (csum mode)
	flips         int
	detected      uint64 // ChecksumDetected accumulated across reopens
	csumLost      uint64 // ChecksumLost accumulated across reopens
}

// harvestStats folds the live store's checksum counters into the
// cross-reopen accumulators (a reopened store starts them at zero).
func (ts *tortureState) harvestStats() {
	st := ts.s.Stats()
	ts.detected += st.ChecksumDetected
	ts.csumLost += st.ChecksumLost
}

func newTorture(t *testing.T, mode Mode, disks int, seed uint64, csum bool) *tortureState {
	ts := &tortureState{
		t:    t,
		rng:  tortureRNG(seed),
		mode: mode,
		csum: csum,
		nv:   &MemNVRAM{},
		lost: map[int64]bool{},
		dead: map[int]bool{},
	}
	ts.devs = make([]BlockDevice, disks)
	for i := range ts.devs {
		ts.devs[i] = NewMemDevice(128 << 10)
	}
	ts.open()
	ts.img = make([]byte, ts.s.Capacity())
	ts.unit = ts.s.Geometry().StripeUnit
	ts.sb = ts.s.Geometry().StripeDataBytes()
	return ts
}

func (ts *tortureState) open() {
	s, err := Open(ts.devs, ts.nv, Options{
		Mode:            ts.mode,
		StripeUnit:      testUnit,
		ScrubIdle:       time.Hour,
		DisableScrubber: true,
		Checksums:       ts.csum,
	})
	if err != nil {
		ts.t.Fatalf("open: %v", err)
	}
	ts.s = s
}

// unitsIn returns the client unit offsets overlapping [off, off+n).
func (ts *tortureState) unitsIn(off, n int64) []int64 {
	var out []int64
	for u := off / ts.unit * ts.unit; u < off+n; u += ts.unit {
		out = append(out, u)
	}
	return out
}

// expectLoss reports whether any unit in [off, off+n) is modeled lost.
func (ts *tortureState) expectLoss(off, n int64) bool {
	for _, u := range ts.unitsIn(off, n) {
		if ts.lost[u] {
			return true
		}
	}
	return false
}

// diskUnitOffset returns the client offset of the unit the given disk
// holds in the given stripe, or -1 if the disk holds parity there.
func (ts *tortureState) diskUnitOffset(stripe int64, disk int) int64 {
	geo := ts.s.Geometry()
	for i := 0; i < geo.DataDisks(); i++ {
		if geo.DataDisk(stripe, i) == disk {
			return stripe*ts.sb + int64(i)*ts.unit
		}
	}
	return -1
}

// markLossOnFailure models the paper's exposure rule at failure time,
// stripe by stripe: a dirty stripe loses its data units on failed disks
// exactly when the missing units outnumber the surviving *fresh*
// parities. Plain AFRAID has no fresh parity while dirty; AFRAID6
// deferring only Q keeps P fresh (one failure absorbed); synchronous
// modes never have dirty stripes.
func (ts *tortureState) markLossOnFailure(failed int) {
	switch ts.mode {
	case Raid5, Raid6:
		return
	}
	geo := ts.s.Geometry()
	for _, stripe := range ts.s.DirtyList() {
		var missing []int64
		for d := range ts.dead {
			if off := ts.diskUnitOffset(stripe, d); off >= 0 {
				missing = append(missing, off)
			}
		}
		if len(missing) == 0 {
			continue
		}
		availParity := 0
		if ts.mode == Afraid6 {
			// P stays fresh in defer-Q mode; it helps unless the P
			// disk itself is among the dead.
			if !ts.dead[geo.ParityDisk(stripe)] {
				availParity = 1
			}
		}
		if len(missing) > availParity {
			for _, off := range missing {
				ts.lost[off] = true
			}
		}
	}
}

// verifyAll reads the whole store and checks every unit against the
// model: intact units must match the reference image; lost units must
// return ErrDataLoss (before repair) or zeros (after repair).
func (ts *tortureState) verifyAll(repaired bool) {
	buf := make([]byte, ts.unit)
	for off := int64(0); off < ts.s.Capacity(); off += ts.unit {
		_, err := ts.s.ReadAt(buf, off)
		switch {
		case ts.lost[off] && !repaired:
			if !errors.Is(err, ErrDataLoss) {
				ts.t.Fatalf("unit %d modeled lost but read returned %v", off, err)
			}
		case ts.lost[off] && repaired:
			if err != nil {
				ts.t.Fatalf("repaired lost unit %d: %v", off, err)
			}
			if !bytes.Equal(buf, make([]byte, ts.unit)) {
				ts.t.Fatalf("repaired lost unit %d not zero-filled", off)
			}
		default:
			if err != nil {
				ts.t.Fatalf("intact unit %d: %v", off, err)
			}
			if !bytes.Equal(buf, ts.img[off:off+ts.unit]) {
				ts.t.Fatalf("intact unit %d corrupted", off)
			}
		}
	}
}

// resync reads back [off, off+n) unit by unit and folds readable
// contents into the reference image (used after partially-applied
// writes, whose prefix spans landed before the error).
func (ts *tortureState) resync(off, n int64) {
	buf := make([]byte, ts.unit)
	for _, u := range ts.unitsIn(off, n) {
		if _, err := ts.s.ReadAt(buf, u); err == nil {
			copy(ts.img[u:u+ts.unit], buf)
		} else if !errors.Is(err, ErrDataLoss) {
			ts.t.Fatalf("resync read at %d: %v", u, err)
		}
	}
}

// logf records the operation stream under -v for debugging failures.
func (ts *tortureState) logf(format string, args ...interface{}) {
	if testing.Verbose() {
		ts.t.Logf(format, args...)
	}
}

// maybeFlip injects silent corruption (csum mode only): one flipped bit
// on a random disk's unit of a random *clean* stripe, behind the
// store's back. A flipped data unit must be detected and repaired by
// the very next read of it — checked on the spot. A flipped parity
// unit stays latent (nothing reads it until a degraded read, a
// read-modify-write, or an audit); it is swept up by CheckParity before
// any disk failure, since corrupt parity plus a dead member would be a
// genuine double failure the loss model does not track.
func (ts *tortureState) maybeFlip(i int) {
	if len(ts.dead) > 0 {
		return
	}
	geo := ts.s.Geometry()
	stripe := int64(ts.rng.intn(int(geo.Stripes())))
	if isMarked(ts.s.eng, stripe) {
		return
	}
	d := ts.rng.intn(len(ts.devs))
	off := geo.DiskOffset(stripe) + int64(ts.rng.intn(int(ts.unit)))
	b := make([]byte, 1)
	if _, err := ts.devs[d].ReadAt(b, off); err != nil {
		ts.t.Fatalf("step %d: flip read: %v", i, err)
	}
	b[0] ^= 1 << (ts.rng.intn(8))
	if _, err := ts.devs[d].WriteAt(b, off); err != nil {
		ts.t.Fatalf("step %d: flip write: %v", i, err)
	}
	ts.flips++
	uoff := ts.diskUnitOffset(stripe, d)
	ts.logf("step %d: flip disk %d stripe %d (unit off %d)", i, d, stripe, uoff)
	if uoff < 0 {
		ts.flippedParity = true
		return
	}
	// A latent parity flip in this same stripe would make the fresh data
	// flip a double failure on single-parity layouts; sweep first (which
	// may also repair the data flip — the read below passes either way).
	before := ts.s.Stats().ChecksumDetected
	ts.sweepParityFlips(i)
	buf := make([]byte, ts.unit)
	if _, err := ts.s.ReadAt(buf, uoff); err != nil {
		ts.t.Fatalf("step %d: read of flipped unit %d: %v", i, uoff, err)
	}
	if !bytes.Equal(buf, ts.img[uoff:uoff+ts.unit]) {
		ts.t.Fatalf("step %d: flipped unit %d served corrupt", i, uoff)
	}
	if ts.s.Stats().ChecksumDetected == before {
		ts.t.Fatalf("step %d: flip on unit %d served correctly but undetected", i, uoff)
	}
}

// sweepParityFlips repairs latent parity corruption via a full audit.
func (ts *tortureState) sweepParityFlips(i int) {
	if !ts.flippedParity {
		return
	}
	if _, err := ts.s.CheckParity(); err != nil {
		ts.t.Fatalf("step %d: parity sweep: %v", i, err)
	}
	ts.flippedParity = false
}

func (ts *tortureState) step(i int) {
	s := ts.s
	capacity := s.Capacity()
	if ts.csum && ts.rng.intn(8) == 0 {
		ts.maybeFlip(i)
	}
	switch op := ts.rng.intn(100); {
	case op < 50: // write
		n := int64(ts.rng.intn(3*int(ts.unit)) + 1)
		off := int64(ts.rng.intn(int(capacity - n)))
		ts.logf("step %d: write [%d,%d) stripe %d..%d dead=%v", i, off, off+n, off/ts.sb, (off+n-1)/ts.sb, ts.dead)
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(ts.rng.next())
		}
		_, err := s.WriteAt(data, off)
		switch {
		case err == nil:
			copy(ts.img[off:], data)
		case errors.Is(err, ErrDataLoss):
			if !ts.expectLoss(off, n) && len(ts.dead) == 0 {
				ts.t.Fatalf("step %d: spurious write loss at %d: %v", i, off, err)
			}
			// A multi-stripe write fails span by span: earlier spans
			// may have been applied. Resync the reference image with
			// whatever is actually readable.
			ts.resync(off, n)
		default:
			ts.t.Fatalf("step %d: write: %v", i, err)
		}
	case op < 75: // read
		n := int64(ts.rng.intn(2*int(ts.unit)) + 1)
		off := int64(ts.rng.intn(int(capacity - n)))
		ts.logf("step %d: read [%d,%d) stripe %d..%d dead=%v dirty=%v", i, off, off+n, off/ts.sb, (off+n-1)/ts.sb, ts.dead, ts.s.DirtyStripes())
		got := make([]byte, n)
		_, err := s.ReadAt(got, off)
		switch {
		case errors.Is(err, ErrDataLoss):
			if !ts.expectLoss(off, n) {
				ts.t.Fatalf("step %d: spurious read loss at [%d,%d)", i, off, off+n)
			}
		case err != nil:
			ts.t.Fatalf("step %d: read: %v", i, err)
		case ts.expectLoss(off, n):
			// Lost range read successfully: only legal if it was
			// zero-filled by a repair (checked in verifyAll).
		default:
			if !bytes.Equal(got, ts.img[off:off+n]) {
				ts.t.Fatalf("step %d: read mismatch at [%d,%d)", i, off, off+n)
			}
		}
	case op < 82: // flush or parity point
		if len(ts.dead) > 0 {
			return
		}
		ts.logf("step %d: flush/paritypoint", i)
		if ts.rng.intn(2) == 0 {
			if err := s.Flush(); err != nil {
				ts.t.Fatalf("step %d: flush: %v", i, err)
			}
		} else {
			off := int64(ts.rng.intn(int(capacity/ts.sb))) * ts.sb
			if err := s.ParityPoint(off, ts.sb); err != nil {
				ts.t.Fatalf("step %d: parity point: %v", i, err)
			}
		}
	case op < 90: // crash and reopen
		ts.logf("step %d: crash+reopen", i)
		ts.harvestStats()
		if err := s.Close(); err != nil {
			ts.t.Fatalf("step %d: close: %v", i, err)
		}
		ts.open()
	case op < 96: // fail a disk, if redundancy allows
		limit := 1
		if ts.mode == Raid6 || ts.mode == Afraid6 {
			limit = 2
		}
		if len(ts.dead) >= limit {
			return
		}
		d := ts.rng.intn(len(ts.devs))
		if ts.dead[d] {
			return
		}
		if ts.csum {
			ts.sweepParityFlips(i)
		}
		ts.logf("step %d: fail disk %d", i, d)
		if err := s.FailDisk(d); err != nil {
			ts.t.Fatalf("step %d: fail disk %d: %v", i, d, err)
		}
		ts.dead[d] = true
		ts.markLossOnFailure(d)
	default: // repair one failed disk
		for d := range ts.dead {
			ts.logf("step %d: repair disk %d", i, d)
			rep, err := s.RepairDisk(d, NewMemDevice(128<<10))
			if err != nil {
				ts.t.Fatalf("step %d: repair disk %d: %v", i, d, err)
			}
			// Every reported damaged range must be modeled lost; fold
			// the zero-fill into the reference image.
			for _, dr := range rep.Lost {
				for _, u := range ts.unitsIn(dr.Offset, dr.Length) {
					if !ts.lost[u] {
						ts.t.Fatalf("step %d: repair reported unexpected loss at %d", i, u)
					}
				}
				copy(ts.img[dr.Offset:dr.Offset+dr.Length], make([]byte, dr.Length))
			}
			delete(ts.dead, d)
			ts.devs[d] = s.devs[d] // replacement now lives in the store
			break
		}
		if len(ts.dead) == 0 {
			// Fully repaired: lost units were zero-filled; from here on
			// they read as zeros and the image already reflects that.
			for u := range ts.lost {
				delete(ts.lost, u)
			}
		}
	}
}

func runTorture(t *testing.T, mode Mode, disks int, seed uint64, steps int, csum bool) {
	ts := newTorture(t, mode, disks, seed, csum)
	defer ts.s.Close()
	for i := 0; i < steps; i++ {
		ts.step(i)
	}
	// Settle: repair anything still broken, flush, verify everything.
	for d := range ts.dead {
		rep, err := ts.s.RepairDisk(d, NewMemDevice(128<<10))
		if err != nil {
			t.Fatalf("final repair: %v", err)
		}
		for _, dr := range rep.Lost {
			for _, u := range ts.unitsIn(dr.Offset, dr.Length) {
				if !ts.lost[u] {
					t.Fatalf("final repair reported unexpected loss at %d", u)
				}
			}
			copy(ts.img[dr.Offset:dr.Offset+dr.Length], make([]byte, dr.Length))
		}
		delete(ts.dead, d)
	}
	for u := range ts.lost {
		delete(ts.lost, u)
	}
	if err := ts.s.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	ts.verifyAll(true)
	if bad, err := ts.s.CheckParity(); err != nil || len(bad) != 0 {
		t.Fatalf("final parity check: bad=%v err=%v", bad, err)
	}
	if csum {
		ts.harvestStats()
		if ts.flips > 0 && ts.detected == 0 {
			t.Fatalf("%d flips injected but none detected", ts.flips)
		}
		if ts.csumLost != 0 {
			t.Fatalf("checksum losses on repairable corruption: detected=%d lost=%d", ts.detected, ts.csumLost)
		}
		if q := ts.s.QuarantinedStripes(); len(q) != 0 {
			t.Fatalf("stripes left quarantined: %v", q)
		}
	}
}

func TestTortureAfraid(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runTorture(t, Afraid, 5, seed, 600, false)
		})
	}
}

func TestTortureRaid5(t *testing.T) {
	runTorture(t, Raid5, 5, 99, 500, false)
}

func TestTortureAfraid6(t *testing.T) {
	for seed := uint64(11); seed <= 13; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runTorture(t, Afraid6, 6, seed, 500, false)
		})
	}
}

func TestTortureRaid6(t *testing.T) {
	runTorture(t, Raid6, 6, 7, 500, false)
}

// TestTortureChecksums runs the same gauntlet with Options.Checksums on
// and random bit flips injected between operations: every flip must end
// detected-and-repaired (zero silent corruption, zero losses).
// TestChecksumFlipSilentWhenDisabled proves the same tampering corrupts
// reads when checksums are off, so these passes are not vacuous.
func TestTortureChecksums(t *testing.T) {
	for _, tc := range []struct {
		mode  Mode
		disks int
		seed  uint64
	}{
		{Afraid, 5, 21},
		{Raid5, 5, 22},
		{Afraid6, 6, 23},
		{Raid6, 6, 24},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			runTorture(t, tc.mode, tc.disks, tc.seed, 500, true)
		})
	}
}
