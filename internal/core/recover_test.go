package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"afraid/internal/testutil"
)

// fillStore writes a distinct pattern across the whole client space and
// returns the image.
func fillStore(t *testing.T, s *Store) []byte {
	t.Helper()
	img := pattern(int(s.Capacity()), 42)
	const chunk = 64 << 10
	for off := int64(0); off < s.Capacity(); off += chunk {
		n := int64(chunk)
		if off+n > s.Capacity() {
			n = s.Capacity() - off
		}
		if _, err := s.WriteAt(img[off:off+n], off); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

func TestDegradedReadCleanStripes(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	img := fillStore(t, s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(img))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("degraded read returned wrong data")
	}
	if s.Stats().DegradedReads == 0 {
		t.Fatal("no degraded reads counted")
	}
}

func TestDirtyStripeLosesOnlyFailedDiskBlocks(t *testing.T) {
	// The paper's exposure semantics: a single-disk failure with
	// unredundant stripes loses exactly one stripe unit per dirty
	// stripe (the one on the failed disk), and nothing from clean
	// stripes.
	s, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	img := fillStore(t, s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Dirty exactly stripes 3 and 7.
	sb := s.Geometry().StripeDataBytes()
	s.WriteAt(pattern(100, 9), 3*sb)
	s.WriteAt(pattern(100, 9), 7*sb)
	copy(img[3*sb:3*sb+100], pattern(100, 9))
	copy(img[7*sb:7*sb+100], pattern(100, 9))
	if s.DirtyStripes() != 2 {
		t.Fatalf("dirty = %d", s.DirtyStripes())
	}

	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}

	geo := s.Geometry()
	unit := geo.StripeUnit
	buf := make([]byte, unit)
	for stripe := int64(0); stripe < geo.Stripes(); stripe++ {
		for idx := 0; idx < geo.DataDisks(); idx++ {
			off := stripe*sb + int64(idx)*unit
			_, err := s.ReadAt(buf, off)
			onFailed := geo.DataDisk(stripe, idx) == 1
			isDirty := stripe == 3 || stripe == 7
			switch {
			case onFailed && isDirty:
				if !errors.Is(err, ErrDataLoss) {
					t.Fatalf("stripe %d unit %d: expected data loss, got %v", stripe, idx, err)
				}
			default:
				if err != nil {
					t.Fatalf("stripe %d unit %d: unexpected error %v", stripe, idx, err)
				}
				if !bytes.Equal(buf, img[off:off+unit]) {
					t.Fatalf("stripe %d unit %d: wrong data", stripe, idx)
				}
			}
		}
	}
}

func TestRepairReconstructsCleanData(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	img := fillStore(t, s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(4); err != nil {
		t.Fatal(err)
	}
	report, err := s.RepairDisk(4, NewMemDevice(testDisk))
	if err != nil {
		t.Fatal(err)
	}
	if report.Bytes() != 0 {
		t.Fatalf("clean array lost %d bytes in repair", report.Bytes())
	}
	got := make([]byte, len(img))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("repair corrupted data")
	}
	if bad, _ := s.CheckParity(); len(bad) != 0 {
		t.Fatalf("parity inconsistent after repair: %v", bad)
	}
}

func TestRepairReportsDirtyStripeDamage(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	img := fillStore(t, s)
	s.Flush()
	sb := s.Geometry().StripeDataBytes()
	unit := s.Geometry().StripeUnit
	// Dirty stripe 5, then fail a disk that holds one of its data units.
	s.WriteAt(pattern(100, 3), 5*sb)
	copy(img[5*sb:5*sb+100], pattern(100, 3))
	failDisk := s.Geometry().DataDisk(5, 2)
	if err := s.FailDisk(failDisk); err != nil {
		t.Fatal(err)
	}
	report, err := s.RepairDisk(failDisk, NewMemDevice(testDisk))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one unit lost: stripe 5's unit on the failed disk.
	if len(report.Lost) != 1 {
		t.Fatalf("damage report = %+v, want exactly 1 range", report.Lost)
	}
	d := report.Lost[0]
	if d.Stripe != 5 || d.Length != unit || d.Offset != 5*sb+2*unit {
		t.Fatalf("damage range = %+v", d)
	}
	// The rest of the array must be intact and consistent, with the
	// damaged unit zero-filled.
	copy(img[d.Offset:d.Offset+d.Length], make([]byte, d.Length))
	got := make([]byte, len(img))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("repair corrupted data outside the damaged range")
	}
	if bad, _ := s.CheckParity(); len(bad) != 0 {
		t.Fatalf("parity inconsistent after repair: %v", bad)
	}
	if s.DirtyStripes() != 0 {
		t.Fatalf("dirty = %d after repair", s.DirtyStripes())
	}
}

// TestFailedRepairReportsSalvagedLoss: a repair whose replacement fails
// partway still returns, with its error, the loss it salvaged before — and
// counts it in Stats. The salvaged unit reads back zeroes with no error
// from then on, so a report dropped with the error would make it silent.
func TestFailedRepairReportsSalvagedLoss(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true, workers: 1})
	defer s.Close()
	fillStore(t, s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	geo := s.Geometry()
	const stripe = 2
	idx := unitOn(s, stripe, 1)
	if idx < 0 {
		t.Fatalf("disk 1 holds stripe %d's parity", stripe)
	}
	sb := geo.StripeDataBytes()
	if _, err := s.WriteAt(pattern(100, 3), stripe*sb); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	lost := DamagedRange{Offset: stripe*sb + int64(idx)*geo.StripeUnit, Length: geo.StripeUnit, Stripe: stripe}
	buf := make([]byte, lost.Length)
	if _, err := s.ReadAt(buf, lost.Offset); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("read of the exposed unit before the repair: %v, want ErrDataLoss", err)
	}

	// The sweep writes the replacement once per stripe; its 11th write fails.
	rep := newGatedDevice(testDisk, 11)
	done := make(chan struct{})
	var report DamageReport
	var err error
	go func() {
		defer close(done)
		report, err = s.RepairDisk(1, rep)
	}()
	<-rep.reached
	rep.Fail()
	close(rep.gate)
	<-done
	if err == nil {
		t.Fatal("repair onto a failing replacement succeeded")
	}
	if len(report.Lost) != 1 || report.Lost[0] != lost {
		t.Fatalf("failed repair reported %+v, want [%+v]", report.Lost, lost)
	}
	if st := s.Stats(); st.DamagedStripes != 1 || st.DamageBytes != lost.Length {
		t.Fatalf("Stats count %d damaged stripes, %d bytes; want 1, %d", st.DamagedStripes, st.DamageBytes, lost.Length)
	}
	if dead := s.DeadDisks(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadDisks = %v, want [1]", dead)
	}
	if _, err := s.ReadAt(buf, lost.Offset); err != nil || !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatalf("salvaged unit: err %v, want zeroes", err)
	}
}

func TestDegradedWriteKeepsRedundancy(t *testing.T) {
	// Writes while a disk is down must maintain parity synchronously so
	// the dead unit stays recoverable.
	s, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	img := fillStore(t, s)
	s.Flush()
	if err := s.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	data := pattern(testUnit*2, 77)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	copy(img[0:len(data)], data)
	// No new dirty stripes in degraded mode.
	if s.DirtyStripes() != 0 {
		t.Fatalf("degraded write marked %d stripes dirty", s.DirtyStripes())
	}
	// Repair and verify everything, including data that lived on disk 0.
	report, err := s.RepairDisk(0, NewMemDevice(testDisk))
	if err != nil {
		t.Fatal(err)
	}
	if report.Bytes() != 0 {
		t.Fatalf("lost %d bytes despite degraded-mode parity maintenance", report.Bytes())
	}
	got := make([]byte, len(img))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("data mismatch after degraded writes and repair")
	}
}

func TestSecondFailureRejected(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(2); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("second failure: %v", err)
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatalf("re-failing the same disk should be idempotent: %v", err)
	}
	if _, err := s.RepairDisk(2, NewMemDevice(testDisk)); err == nil {
		t.Fatal("repairing a healthy disk accepted")
	}
}

func TestFlushBlockedWhileDegraded(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	s.WriteAt(pattern(100, 1), 0)
	s.FailDisk(3)
	if err := s.Flush(); err == nil {
		t.Fatal("flush with failed disk should error")
	}
}

func TestRaid0RepairLosesEverythingOnThatDisk(t *testing.T) {
	devs := newDevs(4)
	s, err := Open(devs, &MemNVRAM{}, Options{Mode: Raid0, StripeUnit: testUnit, ScrubIdle: time.Hour, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	if err := s.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	report, err := s.RepairDisk(2, NewMemDevice(testDisk))
	if err != nil {
		t.Fatal(err)
	}
	// One unit per stripe lived on the failed disk; all lost.
	want := s.Geometry().Stripes() * s.Geometry().StripeUnit
	if report.Bytes() != want {
		t.Fatalf("RAID0 repair lost %d bytes, want %d (a full disk)", report.Bytes(), want)
	}
}

func TestScrubberSkipsWhileDegraded(t *testing.T) {
	var clock testutil.Clock
	opts := WithClock(Options{Mode: Afraid, ScrubIdle: 10 * time.Millisecond, StripeUnit: testUnit, DisableScrubber: true}, &clock)
	s, err := Open(newDevs(5), &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.WriteAt(pattern(100, 1), 0)
	s.FailDisk(1)
	clock.Advance(opts.ScrubIdle)
	s.Engine().Poll()
	if s.DirtyStripes() == 0 {
		t.Fatal("scrubber rebuilt parity using a failed disk")
	}
}

// TestSalvageDropsCachedUnits: a salvage's zeroes (writeBack) drop the
// read cache's copy of the units they replace. Over members slow enough
// for the cache to engage, a unit cached whole is corrupted behind the
// store's back, and its stripe salvaged as a repair's sweep does
// (rebuildStale): the unit reads back as the zeroes laid over it, not as
// the bytes cached before.
func TestSalvageDropsCachedUnits(t *testing.T) {
	probes := make([]*probeDev, 5)
	devs := make([]BlockDevice, len(probes))
	for i := range probes {
		probes[i] = &probeDev{BlockDevice: NewMemDevice(32 * runUnit), service: 50 * time.Microsecond}
		devs[i] = probes[i]
	}
	s, err := Open(devs, &MemNVRAM{}, Options{Mode: Afraid, StripeUnit: runUnit, Checksums: true, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := make([]byte, runUnit)
	for _, off := range []int64{s.Capacity() - runUnit, s.Capacity() - 3*runUnit} { // two slow reads engage the cache
		if _, err := s.ReadAt(got[:512], off); err != nil {
			t.Fatal(err)
		}
	}
	data := pattern(runUnit, 3)
	for i := 0; i < 2; i++ { // the second touch admits the unit
		if _, err := s.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
	r0, _ := deviceOps(probes)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if r1, _ := deviceOps(probes); r1 != r0 || !bytes.Equal(got, data) {
		t.Fatalf("unit 0 not served from the cache: %d member reads", r1-r0)
	}
	e := s.geo.Split(0, runUnit)[0].Extents[0]
	if _, err := probes[e.Disk].BlockDevice.WriteAt(bytes.Repeat([]byte{0xEE}, runUnit), e.DiskOff); err != nil {
		t.Fatal(err)
	}
	var rep DamageReport
	lk := s.stripeLock(0)
	lk.Lock()
	err = s.rebuildStale(context.Background(), 0, true, &rep)
	lk.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lost) != 1 || rep.Lost[0].Offset != 0 || rep.Lost[0].Length != runUnit {
		t.Fatalf("salvage reported %+v, want unit 0 lost", rep.Lost)
	}
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, runUnit)) {
		t.Fatal("a salvaged unit read back as the bytes cached before the salvage")
	}
}
