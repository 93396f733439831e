package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"afraid/internal/testutil"
)

func openTest6(t *testing.T, opts Options) (*Store, []BlockDevice) {
	t.Helper()
	opts.Mode = defaultIf(opts.Mode, Afraid6)
	opts.StripeUnit = testUnit
	if opts.ScrubIdle == 0 {
		opts.ScrubIdle = time.Hour
	}
	devs := newDevs(6) // 4 data + P + Q
	s, err := Open(devs, &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, devs
}

func defaultIf(m, d Mode) Mode {
	if m == Afraid { // zero value
		return d
	}
	return m
}

func TestRaid6ReadAfterWrite(t *testing.T) {
	for _, mode := range []Mode{Raid6, Afraid6} {
		s, _ := openTest6(t, Options{Mode: mode, DisableScrubber: true})
		data := pattern(3*testUnit+511, 9)
		if _, err := s.WriteAt(data, 1234); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got := make([]byte, len(data))
		if _, err := s.ReadAt(got, 1234); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%v: round trip mismatch", mode)
		}
		s.Close()
	}
}

func TestRaid6SyncAlwaysConsistent(t *testing.T) {
	s, _ := openTest6(t, Options{Mode: Raid6, DisableScrubber: true})
	defer s.Close()
	for i := 0; i < 30; i++ {
		s.WriteAt(pattern(777, byte(i)), int64(i)*2345)
	}
	if s.DirtyStripes() != 0 {
		t.Fatalf("sync RAID6 has %d dirty stripes", s.DirtyStripes())
	}
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("P/Q inconsistent: %v", bad)
	}
}

func TestAfraid6DeferQMarksThenFlushCleans(t *testing.T) {
	s, _ := openTest6(t, Options{Mode: Afraid6, DisableScrubber: true})
	defer s.Close()
	s.WriteAt(pattern(100, 1), 0)
	if s.DirtyStripes() != 1 {
		t.Fatalf("dirty = %d", s.DirtyStripes())
	}
	bad, _ := s.CheckParity()
	if len(bad) != 1 {
		t.Fatalf("inconsistent = %v, want the one Q-stale stripe", bad)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	bad, _ = s.CheckParity()
	if len(bad) != 0 {
		t.Fatalf("inconsistent after flush: %v", bad)
	}
}

func TestAfraid6DirtyStripeSurvivesSingleFailure(t *testing.T) {
	// The §5 selling point: with only Q deferred, a dirty stripe is
	// still single-failure recoverable through P.
	s, _ := openTest6(t, Options{Mode: Afraid6, DisableScrubber: true})
	defer s.Close()
	data := pattern(testUnit, 7)
	s.WriteAt(data, 0) // dirty: Q stale, P fresh
	if err := s.FailDisk(s.Geometry().DataDisk(0, 0)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testUnit)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatalf("single failure on a Q-stale stripe should reconstruct via P: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong data reconstructed")
	}
}

// A mark found at Open vouches for no parity: after a crash the Q-stale
// stripe's P may be torn by the write the crash interrupted, so a single
// failure there is reported loss, not a reconstruction through P — until
// the drain re-encodes the stripe. A clean Close hands the mark down as
// the deferral it was, P and all.
func TestAfraid6MarkFoundAfterCrashTrustsNoParity(t *testing.T) {
	for _, clean := range []bool{false, true} {
		devs, nv := newDevs(6), &MemNVRAM{}
		opts := Options{Mode: Afraid6, StripeUnit: testUnit, DisableScrubber: true}
		s, err := Open(devs, nv, opts)
		if err != nil {
			t.Fatal(err)
		}
		data := pattern(testUnit, 7)
		if _, err := s.WriteAt(data, 0); err != nil { // dirty: Q stale, P fresh
			t.Fatal(err)
		}
		if clean {
			s.Close()
		} // else the store is abandoned where it stands: a crash
		if s, err = Open(devs, nv, opts); err != nil {
			t.Fatal(err)
		}
		if err := s.FailDisk(s.Geometry().DataDisk(0, 0)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, testUnit)
		_, err = s.ReadAt(got, 0)
		switch {
		case !clean && !errors.Is(err, ErrDataLoss):
			t.Fatalf("after a crash, a failure on the marked stripe read back %v, want loss", err)
		case clean && (err != nil || !bytes.Equal(got, data)):
			t.Fatalf("after a clean close, the marked stripe did not reconstruct through P: %v", err)
		}
		s.Close()
	}
}

// openDeferBoth opens an Afraid6 store with both parities deferred on
// every stripe (sync count 0).
func openDeferBoth(t *testing.T) *Store {
	t.Helper()
	s, _ := openTest6(t, Options{Mode: Afraid6, DisableScrubber: true})
	if err := s.SetSync(0, s.Capacity(), 0); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAfraid6DeferBothDirtyStripeLosesOnSingleFailure(t *testing.T) {
	s := openDeferBoth(t)
	defer s.Close()
	s.WriteAt(pattern(testUnit, 7), 0)
	if err := s.FailDisk(s.Geometry().DataDisk(0, 0)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testUnit)
	if _, err := s.ReadAt(got, 0); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("defer-both dirty stripe should lose data on single failure, got %v", err)
	}
}

func TestRaid6SurvivesDoubleFailure(t *testing.T) {
	s, _ := openTest6(t, Options{Mode: Raid6, DisableScrubber: true})
	defer s.Close()
	img := fillStore(t, s)
	if err := s.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(3); err != nil {
		t.Fatalf("RAID6 should absorb a second failure: %v", err)
	}
	if err := s.FailDisk(5); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("third failure accepted: %v", err)
	}
	got := make([]byte, len(img))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatalf("double-degraded read: %v", err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("double-degraded read returned wrong data")
	}
}

func TestRaid6DoubleFailureRepairBothDisks(t *testing.T) {
	s, _ := openTest6(t, Options{Mode: Raid6, DisableScrubber: true})
	defer s.Close()
	img := fillStore(t, s)
	s.FailDisk(1)
	s.FailDisk(4)
	rep1, err := s.RepairDisk(1, NewMemDevice(testDisk))
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Bytes() != 0 {
		t.Fatalf("first repair lost %d bytes", rep1.Bytes())
	}
	rep2, err := s.RepairDisk(4, NewMemDevice(testDisk))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Bytes() != 0 {
		t.Fatalf("second repair lost %d bytes", rep2.Bytes())
	}
	got := make([]byte, len(img))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("data corrupted across double repair")
	}
	bad, _ := s.CheckParity()
	if len(bad) != 0 {
		t.Fatalf("parity inconsistent after repairs: %v", bad)
	}
}

func TestAfraid6DegradedWriteMaintainsParity(t *testing.T) {
	s, _ := openTest6(t, Options{Mode: Afraid6, DisableScrubber: true})
	defer s.Close()
	img := fillStore(t, s)
	s.Flush()
	s.FailDisk(2)
	data := pattern(2*testUnit, 55)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	copy(img, data)
	rep, err := s.RepairDisk(2, NewMemDevice(testDisk))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes() != 0 {
		t.Fatalf("lost %d bytes despite degraded parity maintenance", rep.Bytes())
	}
	got := make([]byte, len(img))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("data mismatch after degraded write and repair")
	}
}

func TestAfraid6ScrubberDrains(t *testing.T) {
	var clock testutil.Clock
	opts := WithClock(Options{Mode: Afraid6, ScrubIdle: 20 * time.Millisecond, StripeUnit: testUnit, DisableScrubber: true}, &clock)
	s, err := Open(newDevs(6), &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		s.WriteAt(pattern(100, byte(i)), int64(i)*s.Geometry().StripeDataBytes())
	}
	clock.Advance(opts.ScrubIdle)
	s.Engine().Poll()
	if s.DirtyStripes() != 0 {
		t.Fatalf("scrubber stuck with %d dirty", s.DirtyStripes())
	}
	bad, _ := s.CheckParity()
	if len(bad) != 0 {
		t.Fatalf("inconsistent after scrub: %v", bad)
	}
}

func TestAfraid6DirtyStripeDoubleFailureLosesData(t *testing.T) {
	s, _ := openTest6(t, Options{Mode: Afraid6, DisableScrubber: true})
	defer s.Close()
	fillStore(t, s)
	s.Flush()
	s.WriteAt(pattern(100, 3), 0) // stripe 0 dirty: Q stale
	d0 := s.Geometry().DataDisk(0, 0)
	d1 := s.Geometry().DataDisk(0, 1)
	s.FailDisk(d0)
	s.FailDisk(d1)
	buf := make([]byte, testUnit)
	if _, err := s.ReadAt(buf, 0); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("dirty stripe with two dead data disks should be lost, got %v", err)
	}
	// A clean stripe remains double-failure recoverable.
	if _, err := s.ReadAt(buf, 5*s.Geometry().StripeDataBytes()); err != nil {
		t.Fatalf("clean stripe under double failure: %v", err)
	}
}

func TestRaid6RepairAfterDirtyLossReportsDamage(t *testing.T) {
	s := openDeferBoth(t)
	defer s.Close()
	fillStore(t, s)
	s.Flush()
	s.WriteAt(pattern(100, 3), 0) // dirty with both parities stale
	failDisk := s.Geometry().DataDisk(0, 0)
	s.FailDisk(failDisk)
	rep, err := s.RepairDisk(failDisk, NewMemDevice(testDisk))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lost) != 1 || rep.Lost[0].Stripe != 0 {
		t.Fatalf("damage report = %+v, want stripe 0's unit", rep.Lost)
	}
	// After repair the array must be fully consistent again.
	bad, _ := s.CheckParity()
	if len(bad) != 0 {
		t.Fatalf("inconsistent after lossy repair: %v", bad)
	}
	if s.DirtyStripes() != 0 {
		t.Fatalf("dirty = %d after repair", s.DirtyStripes())
	}
}
