package core

import (
	"bytes"
	"slices"
	"testing"
)

// openReadable opens a store over members that stay readable when failed —
// the Failer of MemDevice hidden, as a node that FailDisk takes away keeps
// its disk — and fills and flushes it.
func openReadable(t *testing.T, mode Mode) (*Store, []BlockDevice, []byte) {
	t.Helper()
	devs := make([]BlockDevice, 5)
	for i := range devs {
		devs[i] = struct{ BlockDevice }{NewMemDevice(testDisk)}
	}
	s, err := Open(devs, &MemNVRAM{}, Options{Mode: mode, StripeUnit: testUnit, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	img := fillStore(t, s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, devs, img
}

// readBack reads the whole store and compares it with want.
func readBack(t *testing.T, s *Store, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the store does not read back its latest bytes")
	}
}

// TestOutageRepairSweepsOnlyWhatItMissed: a member that FailDisk took away
// comes back on the same device with only the stripes written around it to
// rebuild. A stripe dirty at the failure, which nothing wrote since, still
// holds its unit there and reads back. The same steps with another device
// make a replacement, stale everywhere, and that stripe's unit is lost.
func TestOutageRepairSweepsOnlyWhatItMissed(t *testing.T) {
	const victim, k = 1, 4
	for _, replace := range []bool{false, true} {
		s, devs, img := openReadable(t, Afraid)
		geo := s.Geometry()
		sb, unit := geo.StripeDataBytes(), geo.StripeUnit
		dirty := int64(2)
		other := (unitOn(s, dirty, victim) + 1) % geo.DataDisks()
		off := dirty*sb + int64(other)*unit
		if _, err := s.WriteAt(pattern(100, 9), off); err != nil {
			t.Fatal(err)
		}
		copy(img[off:], pattern(100, 9))
		if err := s.FailDisk(victim); err != nil {
			t.Fatal(err)
		}
		var around []int64
		for st := int64(10); len(around) < k; st++ {
			if unitOn(s, st, victim) >= 0 {
				copy(img[st*sb:], pattern(int(sb), byte(st)))
				if _, err := s.WriteAt(img[st*sb:(st+1)*sb], st*sb); err != nil {
					t.Fatal(err)
				}
				around = append(around, st)
			}
		}
		if got := s.eng.StaleUnits(victim); !slices.Equal(got, around) {
			t.Fatalf("replace=%v: stale after the outage = %v, want the %v written around the member", replace, got, around)
		}

		dev := devs[victim]
		if replace {
			dev = NewMemDevice(testDisk)
		}
		before := s.Stats().RecoveredStripes
		report, err := s.RepairDisk(victim, dev)
		if err != nil {
			t.Fatalf("replace=%v: %v", replace, err)
		}
		recovered := s.Stats().RecoveredStripes - before
		lostOff := dirty*sb + int64(unitOn(s, dirty, victim))*unit
		if replace {
			if len(report.Lost) != 1 || report.Lost[0].Offset != lostOff {
				t.Fatalf("replacement reported %+v, want the victim's unit of dirty stripe %d", report.Lost, dirty)
			}
			if recovered != uint64(geo.Stripes())-1 {
				t.Fatalf("replacement recovered %d stripes, want all %d but the lost one", recovered, geo.Stripes())
			}
			clear(img[lostOff : lostOff+unit])
		} else if len(report.Lost) != 0 || recovered != k {
			t.Fatalf("return from an outage recovered %d stripes and lost %+v; want the %d written around it and nothing", recovered, report.Lost, k)
		}
		readBack(t, s, img)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if bad, err := s.CheckParity(); err != nil || len(bad) != 0 {
			t.Fatalf("replace=%v: parity after the repair: %v, %v", replace, bad, err)
		}
		readBack(t, s, img)
	}
}

// TestWriteAroundAbsentUnitOfMarkedStripe: on a marked stripe a write that
// does not touch the absent member's unit loses nothing by deferring, so it
// writes its extents and keeps the mark; the member, back on the same
// device, holds its unit still, and a flush leaves the parity clean.
func TestWriteAroundAbsentUnitOfMarkedStripe(t *testing.T) {
	s, devs, img := openReadable(t, Afraid)
	geo := s.Geometry()
	sb, unit := geo.StripeDataBytes(), geo.StripeUnit
	const st = 5
	victim := geo.DataDisk(st, 0)
	write := func(off int64, p []byte) {
		t.Helper()
		if _, err := s.WriteAt(p, off); err != nil {
			t.Fatal(err)
		}
		copy(img[off:], p)
	}
	write(st*sb+unit, pattern(100, 1))
	if err := s.FailDisk(victim); err != nil {
		t.Fatal(err)
	}
	write(st*sb+2*unit+50, pattern(200, 2))
	got := make([]byte, sb-unit)
	if _, err := s.ReadAt(got, st*sb+unit); err != nil || !bytes.Equal(got, img[st*sb+unit:(st+1)*sb]) {
		t.Fatalf("the write around the absent unit does not read back (err %v)", err)
	}
	if !slices.Contains(s.DirtyList(), st) {
		t.Fatalf("stripe %d lost its mark: dirty %v", st, s.DirtyList())
	}
	if report, err := s.RepairDisk(victim, devs[victim]); err != nil || len(report.Lost) != 0 {
		t.Fatalf("RepairDisk onto the same device = %+v, %v", report, err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if bad, err := s.CheckParity(); err != nil || len(bad) != 0 {
		t.Fatalf("parity after the repair: %v, %v", bad, err)
	}
	readBack(t, s, img)
}

// TestDegradedWriteKeepsTheSurvivingParity: at sync count 0, a write to a
// clean RAID 6 stripe whose P member is absent keeps Q in sync, since the
// scrubber cannot re-encode the stripe until the repair. A data member
// failing next then loses nothing.
func TestDegradedWriteKeepsTheSurvivingParity(t *testing.T) {
	s, _, img := openReadable(t, Raid6)
	geo := s.Geometry()
	if err := s.SetSync(0, geo.Capacity(), 0); err != nil {
		t.Fatal(err)
	}
	const st = 5
	sb := geo.StripeDataBytes()
	if err := s.FailDisk(geo.ParityDisk(st)); err != nil {
		t.Fatal(err)
	}
	off := st*sb + 100
	if _, err := s.WriteAt(pattern(300, 3), off); err != nil {
		t.Fatal(err)
	}
	copy(img[off:], pattern(300, 3))
	if err := s.FailDisk(geo.DataDisk(st, 2)); err != nil {
		t.Fatal(err)
	}
	readBack(t, s, img)
}
