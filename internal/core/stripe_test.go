package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"afraid/internal/layout"
)

// subsets returns every subset of {0..n-1} with at most k members.
func subsets(n, k int) [][]int {
	out := [][]int{nil}
	for a := 0; a < n; a++ {
		out = append(out, []int{a})
		for b := a + 1; b < n && k > 1; b++ {
			out = append(out, []int{a, b})
		}
	}
	return out
}

// uncovered returns the data indices of a stripe that sit on failed disks
// and that the stripe's fresh parities cannot solve: the code is MDS, so
// the failed data units are covered exactly when there are at least as
// many fresh parities on live disks.
func uncovered(s *Store, stripe int64, failed []int, dirty bool) []int {
	fresh := s.freshParities(s.sync[stripe], dirty, false)
	var lost []int
	avail := 0
	parityDisk := []func(int64) int{s.geo.ParityDisk, s.geo.QDisk}
	for j := 0; j < s.geo.Level.ParityUnits(); j++ {
		if fresh.Has(j) && !slices.Contains(failed, parityDisk[j](stripe)) {
			avail++
		}
	}
	for _, d := range failed {
		if role, idx := s.geo.RoleOf(stripe, d); role == layout.Data {
			lost = append(lost, idx)
		}
	}
	if len(lost) <= avail {
		return nil
	}
	return lost
}

// TestReconstructMatrix drives the one reconstruct path through every
// combination it decides: m ∈ {1,2} parities × every choice of at most m
// failed members (each plays data, P and Q as the layout rotates) ×
// stripe state × sync count. Each store holds clean stripes (even) and
// dirty ones (odd, rewritten without a flush) — dirty with P fresh at
// n=1 of 2, with nothing fresh at n=0 — and each row sets its counts:
// the m=1 store keeps its upper half at n=1, m=2 runs its Mode's count,
// then n=0 everywhere, then n = stripe % 3. Every unit must read back
// exact wherever the freshness function says a parity covers it and as
// ErrDataLoss — never wrong bytes — everywhere else; repairing each
// failed member must then report exactly the uncovered units, zero them,
// and leave the array consistent.
func TestReconstructMatrix(t *testing.T) {
	for _, cfg := range []struct {
		name     string
		mode     Mode
		m, disks int
		sync     func(stripes, stripe int64) int // nil: the Mode's
	}{
		{"m=1", Afraid, 1, 5, func(stripes, st int64) int { return int(2 * st / stripes) }},
		{"m=2/defer-Q", Afraid6, 2, 6, nil},
		{"m=2/defer-both", Afraid6, 2, 6, func(_, _ int64) int { return 0 }},
		{"m=2/mixed", Afraid6, 2, 6, func(_, st int64) int { return int(st % 3) }},
	} {
		for _, checksums := range []bool{false, true} {
			for _, failed := range subsets(cfg.disks, cfg.m) {
				name := fmt.Sprintf("%s/checksums=%v/failed=%v", cfg.name, checksums, failed)
				t.Run(name, func(t *testing.T) {
					opts := Options{Mode: cfg.mode, Checksums: checksums, DisableScrubber: true, StripeUnit: testUnit}
					s, err := Open(newDevs(cfg.disks), &MemNVRAM{}, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					if cfg.sync != nil {
						geo := s.Geometry()
						for st := int64(0); st < geo.Stripes(); st++ {
							if err := s.SetSync(st*geo.StripeDataBytes(), geo.StripeDataBytes(), cfg.sync(geo.Stripes(), st)); err != nil {
								t.Fatal(err)
							}
						}
					}
					runReconstructMatrix(t, s, failed)
				})
			}
		}
	}
}

func runReconstructMatrix(t *testing.T, s *Store, failed []int) {
	geo := s.Geometry()
	stripes, sdb, unit := geo.Stripes(), geo.StripeDataBytes(), geo.StripeUnit
	m := geo.Level.ParityUnits()
	want := pattern(int(s.Capacity()), 3)
	if _, err := s.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Dirty the odd stripes with a partial-unit rewrite, so the deferred
	// parities go stale and the synchronous ones take a real delta.
	for stripe := int64(1); stripe < stripes; stripe += 2 {
		off := stripe*sdb + unit/2
		copy(want[off:], pattern(int(unit), byte(stripe)))
		if _, err := s.WriteAt(want[off:off+unit], off); err != nil {
			t.Fatal(err)
		}
	}
	dirty := make(map[int64]bool)
	for _, st := range s.DirtyList() {
		dirty[st] = true
	}
	for stripe := int64(0); stripe < stripes; stripe++ {
		if dirty[stripe] != (stripe%2 == 1 && int(s.sync[stripe]) < m) {
			t.Fatalf("stripe %d: dirty=%v", stripe, dirty[stripe])
		}
	}
	for _, d := range failed {
		if err := s.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}

	// Every byte, a unit and then a sub-unit range at a time: exact where
	// covered, ErrDataLoss where not.
	lost := make(map[[2]int64]bool) // (stripe, data index) of every uncovered unit
	got := make([]byte, unit)
	for stripe := int64(0); stripe < stripes; stripe++ {
		for _, idx := range uncovered(s, stripe, failed, dirty[stripe]) {
			lost[[2]int64{stripe, int64(idx)}] = true
		}
		for idx := int64(0); idx < int64(geo.DataDisks()); idx++ {
			off := stripe*sdb + idx*unit
			for _, r := range [][2]int64{{0, unit}, {unit / 4, unit / 2}} {
				_, err := s.ReadAt(got[:r[1]], off+r[0])
				switch {
				case lost[[2]int64{stripe, idx}]:
					if !errors.Is(err, ErrDataLoss) {
						t.Fatalf("stripe %d unit %d: uncovered read returned %v, want ErrDataLoss", stripe, idx, err)
					}
				case err != nil:
					t.Fatalf("stripe %d unit %d: covered read: %v", stripe, idx, err)
				case !bytes.Equal(got[:r[1]], want[off+r[0]:off+r[0]+r[1]]):
					t.Fatalf("stripe %d unit %d range %v: wrong bytes", stripe, idx, r)
				}
			}
		}
	}

	// Repair: the reports list exactly the uncovered units, each once.
	reported := 0
	for _, d := range failed {
		rep, err := s.RepairDisk(d, NewMemDevice(testDisk))
		if err != nil {
			t.Fatalf("repair disk %d: %v", d, err)
		}
		for _, l := range rep.Lost {
			key := [2]int64{l.Stripe, (l.Offset - l.Stripe*sdb) / unit}
			if !lost[key] || l.Length != unit {
				t.Fatalf("repair of disk %d reported %+v, which was covered", d, l)
			}
			clear(want[l.Offset : l.Offset+l.Length])
			reported++
		}
	}
	if reported != len(lost) {
		t.Fatalf("repairs reported %d lost units, want %d", reported, len(lost))
	}
	if len(failed) > 0 {
		if n := s.DirtyStripes(); n != 0 {
			t.Fatalf("%d stripes still dirty after the last repair", n)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("stripes %v inconsistent after repair", bad)
	}
	all := make([]byte, len(want))
	if _, err := s.ReadAt(all, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, want) {
		t.Fatal("contents after repair differ: covered data must be exact, lost units zero")
	}
}

// Every encode and solve the repair sweep does is timed, so the
// parity_compute histogram accounts for RepairDisk's kernel time: at
// least one observation per stripe.
func TestRepairDiskObservesParity(t *testing.T) {
	s, _ := openCsum(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	if _, err := s.WriteAt(pattern(int(s.Capacity()), 5), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	before := s.ob.parity.Count()
	if _, err := s.RepairDisk(2, NewMemDevice(testDisk)); err != nil {
		t.Fatal(err)
	}
	if grew, stripes := s.ob.parity.Count()-before, uint64(s.geo.Stripes()); grew < stripes {
		t.Fatalf("parity_compute grew by %d over a %d-stripe repair sweep", grew, stripes)
	}
}

// tripDev is a member that fail-stops on the first write after arm(),
// or on the first read after armRead().
type tripDev struct {
	BlockDevice
	armed, armedRead, failed atomic.Bool
}

func (d *tripDev) arm()     { d.armed.Store(true) }
func (d *tripDev) armRead() { d.armedRead.Store(true) }
func (d *tripDev) Fail()    { d.failed.Store(true) }

func (d *tripDev) ReadAt(p []byte, off int64) (int, error) {
	if d.armedRead.CompareAndSwap(true, false) {
		d.failed.Store(true)
	}
	if d.failed.Load() {
		return 0, ErrDeviceFailed
	}
	return d.BlockDevice.ReadAt(p, off)
}

func (d *tripDev) WriteAt(p []byte, off int64) (int, error) {
	if d.armed.CompareAndSwap(true, false) {
		d.failed.Store(true)
	}
	if d.failed.Load() {
		return 0, ErrDeviceFailed
	}
	return d.BlockDevice.WriteAt(p, off)
}

// A second member failing in the middle of a degraded stripe store
// leaves new data units beside old parities. The retry must store the
// image it holds again, not reconstruct the dead units through that
// half-written stripe. At sync count 0 the store's own mark leaves no
// parity fresh, so when the member that fails is the one taking the new
// data, only the image in hand still knows the stripe.
func TestDegradedStoreSurvivesMemberFailingMidStore(t *testing.T) {
	// Stripe 0 keeps P on disk 5, Q on disk 0 and data units 0..3 on
	// disks 1..4; disk 1 is absent, and the write lands in unit 1 (disk 2).
	for _, tc := range []struct {
		name     string
		trip     int
		sync     int
		off, len int
	}{
		{"P's disk dies as the new unit lands", 5, 2, testUnit, testUnit},
		{"the written member dies at sync count 0", 2, 0, testUnit + testUnit/4, testUnit / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			devs := newDevs(6)
			trip := &tripDev{BlockDevice: devs[tc.trip]}
			devs[tc.trip] = trip
			s, err := Open(devs, &MemNVRAM{}, Options{Mode: Raid6, StripeUnit: testUnit, DisableScrubber: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.SetSync(0, s.Capacity(), tc.sync); err != nil {
				t.Fatal(err)
			}
			want := pattern(int(s.geo.StripeDataBytes()), 11)
			if _, err := s.WriteAt(want, 0); err != nil {
				t.Fatal(err)
			}
			if err := s.FailDisk(1); err != nil {
				t.Fatal(err)
			}
			trip.arm()
			fresh := pattern(tc.len, 99)
			copy(want[tc.off:], fresh)
			if _, err := s.WriteAt(fresh, int64(tc.off)); err != nil {
				t.Fatalf("degraded write across the second failure: %v", err)
			}
			if dead := s.DeadDisks(); len(dead) != 2 {
				t.Fatalf("dead disks %v, want the second failure absorbed", dead)
			}
			got := make([]byte, len(want))
			if _, err := s.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("units on the dead disks were reconstructed through a half-written stripe")
			}
		})
	}
}

// A member failing in the middle of a read-modify-write must not leave
// the surviving parity a delta ahead of the data: the degraded retry
// reads a data unit, a second member dies under that read, and the
// retry after that has to solve the dead unit through the parity the
// interrupted write left behind.
func TestInterruptedRMWLeavesSurvivorsConsistent(t *testing.T) {
	devs := newDevs(6)
	q := &tripDev{BlockDevice: devs[0]}
	data2 := &tripDev{BlockDevice: devs[3]}
	devs[0], devs[3] = q, data2
	s, err := Open(devs, &MemNVRAM{}, Options{Mode: Raid6, StripeUnit: testUnit, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Stripe 0: P on disk 5, Q on disk 0, data units 0..3 on disks 1..4.
	want := pattern(int(s.geo.StripeDataBytes()), 21)
	if _, err := s.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	q.arm()         // dies taking the Q delta of the write below
	data2.armRead() // untouched by that write's reads; dies under the degraded retry's
	fresh := pattern(testUnit/2, 77)
	copy(want[3*testUnit:], fresh)
	if _, err := s.WriteAt(fresh, 3*testUnit); err != nil {
		t.Fatalf("write across both failures: %v", err)
	}
	if dead := s.DeadDisks(); len(dead) != 2 {
		t.Fatalf("dead disks %v, want both failures absorbed", dead)
	}
	got := make([]byte, len(want))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a dead data unit was solved through a parity one delta ahead of the data")
	}
}
