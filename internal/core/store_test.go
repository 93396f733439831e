package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

const (
	testUnit = 4 << 10
	testDisk = 256 << 10 // 64 stripes of 4KB units on each of 5 disks
)

func newDevs(n int) []BlockDevice {
	devs := make([]BlockDevice, n)
	for i := range devs {
		devs[i] = NewMemDevice(testDisk)
	}
	return devs
}

func openTest(t *testing.T, opts Options) (*Store, []BlockDevice) {
	t.Helper()
	opts.StripeUnit = testUnit
	if opts.ScrubIdle == 0 {
		opts.ScrubIdle = time.Hour // keep the scrubber out of the way unless wanted
	}
	devs := newDevs(5)
	s, err := Open(devs, &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, devs
}

func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*7 + seed
	}
	return p
}

func TestReadAfterWrite(t *testing.T) {
	for _, mode := range []Mode{Afraid, Raid5, Raid0} {
		s, _ := openTest(t, Options{Mode: mode, DisableScrubber: true})
		data := pattern(3*testUnit+123, 5) // spans stripes and partial units
		if _, err := s.WriteAt(data, 777); err != nil {
			t.Fatalf("%v: write: %v", mode, err)
		}
		got := make([]byte, len(data))
		if _, err := s.ReadAt(got, 777); err != nil {
			t.Fatalf("%v: read: %v", mode, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%v: read-after-write mismatch", mode)
		}
		s.Close()
	}
}

func TestReadAfterWriteQuick(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	capb := s.Capacity()
	prop := func(rawOff int64, size uint16, seed byte) bool {
		n := int64(size%8192) + 1
		off := rawOff % (capb - n)
		if off < 0 {
			off += capb - n
		}
		data := pattern(int(n), seed)
		if _, err := s.WriteAt(data, off); err != nil {
			return false
		}
		got := make([]byte, n)
		if _, err := s.ReadAt(got, off); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAFRAIDMarksThenFlushCleans(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	s.WriteAt(pattern(testUnit, 1), 0)
	s.WriteAt(pattern(testUnit, 2), 10*int64(s.Geometry().StripeDataBytes()))
	if got := s.DirtyStripes(); got != 2 {
		t.Fatalf("dirty = %d, want 2", got)
	}
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 {
		t.Fatalf("inconsistent stripes = %v, want the 2 dirty ones", bad)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.DirtyStripes(); got != 0 {
		t.Fatalf("dirty after flush = %d", got)
	}
	bad, err = s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("inconsistent stripes after flush: %v", bad)
	}
}

func TestRaid5AlwaysConsistent(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Raid5, DisableScrubber: true})
	defer s.Close()
	for i := 0; i < 30; i++ {
		s.WriteAt(pattern(1000, byte(i)), int64(i)*3333)
	}
	if got := s.DirtyStripes(); got != 0 {
		t.Fatalf("RAID5 store has %d dirty stripes", got)
	}
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("RAID5 parity inconsistent: %v", bad)
	}
}

func TestScrubberRebuildsInIdle(t *testing.T) {
	opts := Options{Mode: Afraid, ScrubIdle: 20 * time.Millisecond}
	opts.StripeUnit = testUnit
	devs := newDevs(5)
	s, err := Open(devs, &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.WriteAt(pattern(testUnit, byte(i)), int64(i)*s.Geometry().StripeDataBytes())
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.DirtyStripes() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("scrubber did not drain: %d dirty", s.DirtyStripes())
		}
		time.Sleep(5 * time.Millisecond)
	}
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("scrubbed store has inconsistent stripes %v", bad)
	}
	if s.Stats().ScrubbedStripes == 0 {
		t.Fatal("scrub counter is zero")
	}
}

func TestParityPointMakesRangeRedundant(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	sb := s.Geometry().StripeDataBytes()
	s.WriteAt(pattern(100, 1), 0)
	s.WriteAt(pattern(100, 2), 5*sb)
	if err := s.ParityPoint(0, sb); err != nil {
		t.Fatal(err)
	}
	if got := s.DirtyStripes(); got != 1 {
		t.Fatalf("dirty = %d after partial parity point, want 1", got)
	}
}

func TestCrashRecoveryResumesDirtyStripes(t *testing.T) {
	nv := &MemNVRAM{}
	devs := newDevs(5)
	opts := Options{Mode: Afraid, DisableScrubber: true, StripeUnit: testUnit, ScrubIdle: time.Hour}
	s, err := Open(devs, nv, opts)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(2*testUnit, 9)
	s.WriteAt(data, 0)
	dirtyBefore := s.DirtyStripes()
	s.Close() // crash: no flush; NVRAM retains the marks

	s2, err := Open(devs, nv, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.DirtyStripes(); got != dirtyBefore {
		t.Fatalf("recovered dirty = %d, want %d", got, dirtyBefore)
	}
	got := make([]byte, len(data))
	if _, err := s2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across crash")
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if bad, _ := s2.CheckParity(); len(bad) != 0 {
		t.Fatalf("parity inconsistent after recovery flush: %v", bad)
	}
}

func TestCorruptNVRAMTriggersFullRebuild(t *testing.T) {
	nv := &MemNVRAM{}
	nv.Store([]byte("garbage image"))
	devs := newDevs(5)
	s, err := Open(devs, nv, Options{Mode: Afraid, DisableScrubber: true, StripeUnit: testUnit, ScrubIdle: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Stats().NVRAMRecovered {
		t.Fatal("NVRAM recovery not flagged")
	}
	if got := s.DirtyStripes(); got != s.Geometry().Stripes() {
		t.Fatalf("full rebuild should mark all %d stripes, got %d", s.Geometry().Stripes(), got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if bad, _ := s.CheckParity(); len(bad) != 0 {
		t.Fatalf("parity inconsistent after full rebuild: %v", bad)
	}
}

func TestBoundsAndClosedErrors(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	buf := make([]byte, 10)
	if _, err := s.ReadAt(buf, s.Capacity()-5); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := s.WriteAt(buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	// Offsets near MaxInt64 must be rejected, not wrapped by off+length
	// overflow into a range that passes the capacity check (and then
	// panics in layout.Split).
	if _, err := s.ReadAt(buf, math.MaxInt64-5); err == nil {
		t.Fatal("overflowing read range accepted")
	}
	if _, err := s.WriteAt(buf, math.MaxInt64-5); err == nil {
		t.Fatal("overflowing write range accepted")
	}
	s.Close()
	if _, err := s.ReadAt(buf, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestMismatchedDeviceSizesRejected(t *testing.T) {
	devs := newDevs(5)
	devs[3] = NewMemDevice(testDisk / 2)
	if _, err := Open(devs, &MemNVRAM{}, Options{StripeUnit: testUnit}); err == nil {
		t.Fatal("mismatched device sizes accepted")
	}
}

func TestDirtyThresholdForcesScrub(t *testing.T) {
	opts := Options{Mode: Afraid, ScrubIdle: time.Hour, DirtyThreshold: 4, StripeUnit: testUnit}
	devs := newDevs(5)
	s, err := Open(devs, &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sb := s.Geometry().StripeDataBytes()
	for i := 0; i < 20; i++ {
		s.WriteAt(pattern(100, byte(i)), int64(i)*sb)
	}
	// the valve rebuilds inline when far over threshold; the backlog must
	// be bounded near the threshold despite ScrubIdle never elapsing.
	if got := s.DirtyStripes(); got > 2*int64(opts.DirtyThreshold)+1 {
		t.Fatalf("dirty = %d, threshold policy not bounding backlog", got)
	}
	if s.Stats().ForcedScrubs == 0 {
		t.Fatal("no forced scrubs recorded")
	}
}
