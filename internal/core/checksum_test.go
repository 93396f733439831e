package core

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// openCsum opens a 5-disk store with block checksums enabled.
func openCsum(t *testing.T, opts Options) (*Store, []BlockDevice) {
	t.Helper()
	opts.StripeUnit = testUnit
	opts.Checksums = true
	if opts.ScrubIdle == 0 {
		opts.ScrubIdle = time.Hour
	}
	devs := newDevs(5)
	s, err := Open(devs, &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, devs
}

// flipByte corrupts one byte directly on a backing device, behind the
// store's back: the unit changes but its checksum slot does not.
func flipByte(t *testing.T, d BlockDevice, off int64) {
	t.Helper()
	b := make([]byte, 1)
	if _, err := d.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := d.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumRoundTripModes(t *testing.T) {
	for _, mode := range []Mode{Afraid, Raid5, Raid0, Raid6, Afraid6} {
		s, _ := openCsum(t, Options{Mode: mode, DisableScrubber: true})
		data := pattern(3*testUnit+123, 5)
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
		if err := s.Flush(); err != nil {
			t.Fatalf("%v: flush: %v", mode, err)
		}
		s.Close()
	}
}

func TestChecksumTrailerShrinksCapacity(t *testing.T) {
	plain, _ := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	defer plain.Close()
	sums, _ := openCsum(t, Options{Mode: Afraid, DisableScrubber: true})
	defer sums.Close()
	if sums.Capacity() >= plain.Capacity() {
		t.Fatalf("checksummed capacity %d not below plain %d", sums.Capacity(), plain.Capacity())
	}
}

// A flipped bit on a clean stripe's data unit is detected on read and
// repaired in place from parity: the client sees the original bytes.
func TestChecksumRepairsCleanDataUnit(t *testing.T) {
	s, devs := openCsum(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	data := pattern(testUnit, 9)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	d := s.geo.DataDisk(0, 0)
	flipByte(t, devs[d], s.geo.DiskOffset(0)+100)
	got := make([]byte, testUnit)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatalf("read after flip: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read served corrupt bytes")
	}
	st := s.Stats()
	if st.ChecksumDetected == 0 || st.ChecksumRepaired == 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Repaired in place: verifying the raw unit passes again.
	if err := s.verifyUnit(d, 0); err != nil {
		t.Fatalf("unit still corrupt after repair: %v", err)
	}
}

// A flipped bit on a clean stripe's parity is caught by CheckParity and
// recomputed; the audit ends consistent.
func TestChecksumRepairsParityUnit(t *testing.T) {
	s, devs := openCsum(t, Options{Mode: Raid5, DisableScrubber: true})
	defer s.Close()
	if _, err := s.WriteAt(pattern(testUnit, 3), 0); err != nil {
		t.Fatal(err)
	}
	flipByte(t, devs[s.geo.ParityDisk(0)], s.geo.DiskOffset(0)+7)
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("inconsistent stripes after repair: %v", bad)
	}
	if st := s.Stats(); st.ChecksumRepaired == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// A scribbled checksum slot (torn trailer write) is indistinguishable
// from corrupt data and goes down the same repair path.
func TestChecksumTornSlotRepairs(t *testing.T) {
	s, devs := openCsum(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	data := pattern(testUnit, 11)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	d := s.geo.DataDisk(0, 0)
	// Torn slot: the magic landed, the CRC bytes did not.
	if _, err := devs[d].WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, s.geo.ChecksumOff(0)+4); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testUnit)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatalf("read after torn slot: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read served wrong bytes")
	}
	if err := s.verifyUnit(d, 0); err != nil {
		t.Fatalf("slot not rewritten: %v", err)
	}
}

// Corruption under a dirty AFRAID stripe has no redundancy to repair
// from: the read reports loss (never serves the corrupt bytes), Flush
// quarantines the stripe, and overwriting the unit clears the state.
func TestChecksumDirtyStripeLoss(t *testing.T) {
	s, devs := openCsum(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	if _, err := s.WriteAt(pattern(testUnit, 4), 0); err != nil {
		t.Fatal(err)
	}
	d := s.geo.DataDisk(0, 0)
	flipByte(t, devs[d], s.geo.DiskOffset(0)+50)

	got := make([]byte, testUnit)
	if _, err := s.ReadAt(got, 0); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("read: want ErrDataLoss, got %v", err)
	}
	if st := s.Stats(); st.ChecksumLost == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if err := s.Flush(); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("flush: want ErrDataLoss, got %v", err)
	}
	if q := s.QuarantinedStripes(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("quarantine: %v", q)
	}

	// A full overwrite of the corrupt unit replaces data and checksum;
	// the stripe becomes scrubbable again.
	fresh := pattern(testUnit, 77)
	if _, err := s.WriteAt(fresh, 0); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush after overwrite: %v", err)
	}
	if _, err := s.ReadAt(got, 0); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("read after overwrite: %v", err)
	}
	if q := s.QuarantinedStripes(); len(q) != 0 {
		t.Fatalf("quarantine not dropped: %v", q)
	}
}

// With checksums disabled the same flip is served silently — the
// detection tests above are not vacuously passing.
func TestChecksumFlipSilentWhenDisabled(t *testing.T) {
	s, devs := openTest(t, Options{Mode: Afraid, DisableScrubber: true})
	defer s.Close()
	data := pattern(testUnit, 8)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, devs[s.geo.DataDisk(0, 0)], s.geo.DiskOffset(0)+100)
	got := make([]byte, testUnit)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Fatal("flip not visible — tamper ineffective, detection tests prove nothing")
	}
}

// Double-parity repair: two corrupt data units in the same clean RAID 6
// stripe are both recovered.
func TestChecksumRaid6DoubleTamper(t *testing.T) {
	s, devs := openCsum(t, Options{Mode: Raid6, DisableScrubber: true})
	defer s.Close()
	data := pattern(2*testUnit, 21)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	flipByte(t, devs[s.geo.DataDisk(0, 0)], s.geo.DiskOffset(0)+1)
	flipByte(t, devs[s.geo.DataDisk(0, 1)], s.geo.DiskOffset(0)+2)
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("double tamper not repaired")
	}
}

// A member that fail-stops under a unit repair is absorbed like one that
// fail-stops under the span itself: the retry works around it and repairs
// the corrupt unit beside it (RAID 6), or reports the double loss (RAID 5).
func TestChecksumRepairMeetsFailStop(t *testing.T) {
	for _, mode := range []Mode{Raid6, Raid5} {
		s, devs := openCsum(t, Options{Mode: mode, DisableScrubber: true})
		data := pattern(testUnit, 23)
		if _, err := s.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		flipByte(t, devs[s.geo.DataDisk(0, 0)], s.geo.DiskOffset(0)+1)
		dead := s.geo.DataDisk(0, 1) // not under the read: the repair is the first to meet it
		devs[dead].(*MemDevice).Fail()
		got := make([]byte, len(data))
		_, err := s.ReadAt(got, 0)
		if dd := s.DeadDisks(); len(dd) != 1 || dd[0] != dead {
			t.Fatalf("%v: dead disks %v after a member failed under a unit repair, want [%d] (read: %v)", mode, dd, dead, err)
		}
		switch {
		case mode == Raid6 && (err != nil || !bytes.Equal(got, data)):
			t.Fatalf("raid6: corrupt unit beside a dead member not repaired: %v", err)
		case mode == Raid5 && !errors.Is(err, ErrDataLoss):
			t.Fatalf("raid5: corrupt unit beside a dead member read as %v, want ErrDataLoss", err)
		}
		s.Close()
	}
}

// Afraid6 defers only Q, so a dirty stripe still repairs single
// corruption through its fresh P — the paper's partial-redundancy
// point extended to integrity.
func TestChecksumAfraid6DirtyRepairs(t *testing.T) {
	s, devs := openCsum(t, Options{Mode: Afraid6, DisableScrubber: true})
	defer s.Close()
	data := pattern(testUnit, 31)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	flipByte(t, devs[s.geo.DataDisk(0, 0)], s.geo.DiskOffset(0)+3)
	got := make([]byte, testUnit)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("dirty-stripe corruption not repaired through fresh P")
	}
	if st := s.Stats(); st.ChecksumRepaired == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// A scrub that meets a corrupt unit repairs it and still drains the
// stripe: the repair keeps the mark, so the engine clears it and counts it.
func TestChecksumScrubRepairIsCountedAsScrubbed(t *testing.T) {
	s, devs := openCsum(t, Options{Mode: Afraid6, DisableScrubber: true})
	defer s.Close()
	data := pattern(testUnit, 41)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	flipByte(t, devs[s.geo.DataDisk(0, 0)], s.geo.DiskOffset(0)+5)
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if st := s.Stats(); st.ScrubbedStripes != 1 || st.ChecksumRepaired != 1 || s.DirtyStripes() != 0 {
		t.Fatalf("scrubbed %d, repaired %d, dirty %d; want 1, 1, 0", st.ScrubbedStripes, st.ChecksumRepaired, s.DirtyStripes())
	}
	got := make([]byte, testUnit)
	if _, err := s.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

// RepairDisk writes checksum slots for everything it reconstructs, so
// the replacement's units verify from the moment of the swap.
func TestChecksumRepairDiskWritesSlots(t *testing.T) {
	s, _ := openCsum(t, Options{Mode: Raid5, DisableScrubber: true})
	defer s.Close()
	data := pattern(int(s.Capacity()), 13)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	rep, err := s.RepairDisk(2, NewMemDevice(testDisk))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lost) != 0 {
		t.Fatalf("unexpected loss: %+v", rep)
	}
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after repair")
	}
	for st := int64(0); st < s.geo.Stripes(); st++ {
		if err := s.verifyUnit(2, st); err != nil {
			t.Fatalf("stripe %d on replacement: %v", st, err)
		}
	}
}

// A survivor corrupted while a disk is dead exceeds RAID 5 redundancy:
// the repair sweep salvages the stripe — zeroing and reporting both
// unrecoverable units — instead of failing or serving garbage.
func TestChecksumRepairDiskSalvagesCorruptSurvivor(t *testing.T) {
	s, devs := openCsum(t, Options{Mode: Raid5, DisableScrubber: true})
	defer s.Close()
	data := pattern(int(s.Capacity()), 17)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	target := s.geo.DataDisk(0, 0)
	var survivor int
	for i := 0; i < s.geo.DataDisks(); i++ {
		if d := s.geo.DataDisk(0, i); d != target {
			survivor = d
			break
		}
	}
	if err := s.FailDisk(target); err != nil {
		t.Fatal(err)
	}
	flipByte(t, devs[survivor], s.geo.DiskOffset(0)+9)
	rep, err := s.RepairDisk(target, NewMemDevice(testDisk))
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if len(rep.Lost) == 0 {
		t.Fatal("salvage reported no loss")
	}
	for _, l := range rep.Lost {
		if l.Stripe != 0 {
			t.Fatalf("loss outside tampered stripe: %+v", l)
		}
	}
	// Everything reads without error now; lost ranges read zero.
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatalf("read after salvage: %v", err)
	}
	zero := make([]byte, testUnit)
	for _, l := range rep.Lost {
		if !bytes.Equal(got[l.Offset:l.Offset+l.Length], zero[:l.Length]) {
			t.Fatalf("lost range %+v not zeroed", l)
		}
	}
}
