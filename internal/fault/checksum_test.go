package fault

import (
	"bytes"
	"errors"
	"testing"

	"afraid/internal/core"
)

// TestFlipBitReadPathDecay is the satellite regression for read-path
// bit decay: a FlipBit rule armed on reads must fire (the old fire()
// rejected every non-torn action on the read path), corrupt exactly one
// bit, and persist the rot to the backing so later reads see it too.
func TestFlipBitReadPathDecay(t *testing.T) {
	mem := core.NewMemDevice(4096)
	d := New(mem, 17)
	d.AddRule(Rule{When: Reads(), Do: FlipBit(), Max: 1})

	p := bytes.Repeat([]byte{0x55}, 64)
	if _, err := d.WriteAt(p, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	first := make([]byte, 64)
	if _, err := d.ReadAt(first, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	diff := 0
	for i := range first {
		diff += popcount(first[i] ^ p[i])
	}
	if diff != 1 {
		t.Fatalf("read-path FlipBit: expected exactly 1 flipped bit, got %d", diff)
	}
	if d.Stats().FlipBits != 1 {
		t.Fatalf("stats: %+v", d.Stats())
	}
	// The rot is durable: a second read (rule exhausted) sees the same
	// corrupted image, both through the wrapper and from the backing.
	second := make([]byte, 64)
	if _, err := d.ReadAt(second, 0); err != nil {
		t.Fatalf("second read: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("read-path flip did not persist to the backing")
	}
	raw := make([]byte, 64)
	mem.ReadAt(raw, 0)
	if !bytes.Equal(first, raw) {
		t.Fatal("backing diverges from what the wrapper served")
	}
}

// TestTornTrailerDetectedAndRepaired tears a checksum-slot write (the
// Trailer() trigger picks device writes landing in the checksum region)
// and checks the store treats the half-written slot as an ordinary
// mismatch on the next read: detected, repaired from redundancy, and
// the unit settles on old-or-new content — never garbage, never loss.
func TestTornTrailerDetectedAndRepaired(t *testing.T) {
	backings := make([]core.BlockDevice, 5)
	for i := range backings {
		backings[i] = core.NewMemDevice(64 << 10)
	}
	devs := Wrap(backings, 23)
	st, err := core.Open(Devices(devs), &core.MemNVRAM{}, core.Options{
		Mode: core.Raid5, StripeUnit: 512, Checksums: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	geo := st.Geometry()
	for _, d := range devs {
		d.SetChecksumRegion(geo.DiskSize)
	}

	old := bytes.Repeat([]byte{0xA1}, int(geo.StripeUnit))
	if _, err := st.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}

	// Tear the next trailer write on the device holding data unit 0.
	target := geo.DataDisk(0, 0)
	devs[target].AddRule(Rule{When: All(Writes(), Trailer()), Do: TornWrite(), Max: 1})

	neu := bytes.Repeat([]byte{0xB2}, int(geo.StripeUnit))
	if _, werr := st.WriteAt(neu, 0); werr == nil {
		t.Fatal("write over a torn trailer should not be acknowledged")
	} else if !errors.Is(werr, ErrTorn) {
		t.Fatalf("expected ErrTorn, got %v", werr)
	}
	if devs[target].Stats().TornWrites != 1 {
		t.Fatalf("torn rule did not fire: %+v", devs[target].Stats())
	}

	got := make([]byte, geo.StripeUnit)
	if _, err := st.ReadAt(got, 0); err != nil {
		t.Fatalf("read after torn trailer must repair, not fail: %v", err)
	}
	if !bytes.Equal(got, old) && !bytes.Equal(got, neu) {
		t.Fatalf("unacknowledged unit must settle on old or new content, got %x...", got[:8])
	}
	stats := st.Stats()
	if stats.ChecksumDetected == 0 || stats.ChecksumRepaired == 0 {
		t.Fatalf("torn slot not detected/repaired: %+v", stats)
	}
	if stats.ChecksumLost != 0 {
		t.Fatalf("torn slot reported as loss: %+v", stats)
	}
	// The repaired stripe is fully consistent again.
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	bad, err := st.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("stripes still inconsistent after repair: %v", bad)
	}
}

// TestEpisodeChecksumsRepairFlips drives seeded chaos episodes with
// silent bit flips armed on both I/O paths. With checksums on, every
// episode must end corruption-free: flips are either detected and
// repaired or surface as reported loss — never served silently.
func TestEpisodeChecksumsRepairFlips(t *testing.T) {
	flips, detected := int64(0), int64(0)
	for _, m := range []core.Mode{core.Afraid, core.Raid5, core.Raid6, core.Afraid6} {
		for seed := int64(0); seed < 8; seed++ {
			res := runOne(t, 40+seed, Config{
				Mode:      m,
				Checksums: true, FlipBits: 2, ReadRot: 1,
			})
			flips += res.Stats["fault.flip_bits"]
			detected += res.Stats["core.checksum_detected"]
		}
	}
	if flips == 0 {
		t.Fatal("no flip rule ever fired; the matrix is vacuous")
	}
	if detected == 0 {
		t.Fatalf("%d flips injected but the store detected none", flips)
	}
}

// TestEpisodeChecksumsUnderCrash mixes flips with the power-cut and
// repair schedules: detection must survive crash recovery, disk
// failure, and rebuild onto a replacement.
func TestEpisodeChecksumsUnderCrash(t *testing.T) {
	for _, m := range []core.Mode{core.Afraid, core.Raid5, core.Afraid6} {
		for seed := int64(0); seed < 6; seed++ {
			runOne(t, 80+seed, Config{
				Mode:      m,
				Checksums: true, FlipBits: 1, ReadRot: 1,
				PowerCut: true, DiskFails: 1, Repair: true,
			})
		}
	}
}

// TestEpisodeFlipsWithoutChecksumsViolate is the bites-proof: the same
// flip schedule with Options.Checksums off must produce at least one
// silent-corruption violation across the seed sweep, showing both that
// the harness can see the corruption and that the checksum layer is
// what prevents it.
func TestEpisodeFlipsWithoutChecksumsViolate(t *testing.T) {
	violations, flips := 0, int64(0)
	for seed := int64(0); seed < 12; seed++ {
		st := NewCore(Config{Mode: core.Raid5, Checksums: false, FlipBits: 2, ReadRot: 1})
		res, err := Run(120+seed, st, st.Plan())
		if err != nil {
			t.Fatalf("seed %d: %v", 120+seed, err)
		}
		violations += len(res.Violations)
		flips += res.Stats["fault.flip_bits"]
	}
	if flips == 0 {
		t.Fatal("no flip rule ever fired")
	}
	if violations == 0 {
		t.Fatal("flips with checksums disabled produced no violations; the detection claim is vacuous")
	}
}
