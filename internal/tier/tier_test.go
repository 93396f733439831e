package tier

import (
	"bytes"

	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"afraid/internal/core"
)

// testRig is one assembled hybrid plus the handles tests need to crash
// and reopen it.
type testRig struct {
	back      *core.Store
	backDevs  []core.BlockDevice
	backNV    *core.MemNVRAM
	front     []core.BlockDevice
	nv        core.NVRAM
	st        *Store
	extentSz  int64
	slotsPair int64
}

// still is a tier whose migrator never demotes: it waits an hour for
// idleness, and its pressure valve is above any front a test builds.
var still = Options{IdleDelay: time.Hour, MaxDirtyBytes: 1 << 40}

// newRig builds a small hybrid: a 4-disk AFRAID back end and one front
// mirror pair with slotsPair extent slots.
func newRig(t *testing.T, opts Options, slotsPair int64) *testRig {
	return openRig(t, opts, slotsPair, func(d core.BlockDevice) core.BlockDevice { return d }, &core.MemNVRAM{})
}

// openRig is newRig with each front copy's media passed through wrap
// and the extent map kept in nv.
func openRig(t *testing.T, opts Options, slotsPair int64, wrap func(core.BlockDevice) core.BlockDevice, nv core.NVRAM) *testRig {
	t.Helper()
	if opts.ExtentSize == 0 {
		opts.ExtentSize = 16 << 10
	}
	r := &testRig{
		backNV:    &core.MemNVRAM{},
		nv:        nv,
		extentSz:  opts.ExtentSize,
		slotsPair: slotsPair,
	}
	for i := 0; i < 4; i++ {
		r.backDevs = append(r.backDevs, core.NewMemDevice(256<<10))
	}
	back, err := core.Open(r.backDevs, r.backNV, core.Options{StripeUnit: 4096, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	r.back = back
	frontSize := slotsPair * (opts.ExtentSize + tagSize)
	r.front = []core.BlockDevice{wrap(core.NewMemDevice(frontSize)), wrap(core.NewMemDevice(frontSize))}
	st, err := Open(back, r.front, r.nv, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.st = st
	return r
}

// reopen simulates a crash: the old Store is abandoned (no Close) and
// a new one is assembled over the same devices and NVRAM images.
func (r *testRig) reopen(t *testing.T, opts Options) {
	t.Helper()
	r.st.closed.Store(true)
	r.st.mig.stop()
	back, err := core.Open(r.backDevs, r.backNV, core.Options{StripeUnit: 4096, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	r.back = back
	if opts.ExtentSize == 0 {
		opts.ExtentSize = r.extentSz
	}
	st, err := Open(back, r.front, r.nv, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.st = st
}

func TestTierWriteReadPromote(t *testing.T) {
	r := newRig(t, still, 8)
	defer r.st.Close()

	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := r.st.WriteAt(data, 20000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := r.st.ReadAt(got, 20000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back differs after promote")
	}
	ts := r.st.TierStats()
	if ts.Promotes == 0 {
		t.Fatalf("small write did not promote: %+v", ts)
	}
	if ts.FrontReadHits == 0 {
		t.Fatalf("read of resident extent missed the front tier: %+v", ts)
	}
	// A second write to the same extent is a pure front hit.
	if _, err := r.st.WriteAt(data, 21000); err != nil {
		t.Fatal(err)
	}
	if ts := r.st.TierStats(); ts.FrontWriteHits == 0 {
		t.Fatalf("resident write did not hit the front: %+v", ts)
	}
}

func TestTierLargeWriteGoesAround(t *testing.T) {
	r := newRig(t, still, 8)
	defer r.st.Close()

	big := make([]byte, 128<<10) // > 2 × the 16 KiB extent: writes around
	rand.New(rand.NewSource(2)).Read(big)
	if _, err := r.st.WriteAt(big, 0); err != nil {
		t.Fatal(err)
	}
	ts := r.st.TierStats()
	if ts.Promotes != 0 {
		t.Fatalf("large write promoted %d extents", ts.Promotes)
	}
	if ts.WriteArounds == 0 {
		t.Fatal("large write did not write around")
	}
	got := make([]byte, len(big))
	if _, err := r.st.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("write-around data corrupted")
	}
}

func TestTierFlushDemotesAndBackHoldsData(t *testing.T) {
	r := newRig(t, still, 8)
	defer r.st.Close()

	data := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(data)
	if _, err := r.st.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.st.Flush(); err != nil {
		t.Fatal(err)
	}
	ts := r.st.TierStats()
	if ts.Demotes == 0 {
		t.Fatal("flush did not demote")
	}
	if ts.DirtyExtents != 0 {
		t.Fatalf("dirty extents after flush: %d", ts.DirtyExtents)
	}
	// The back tier must now hold the bytes itself.
	got := make([]byte, 4096)
	if _, err := r.back.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("back tier missing demoted data")
	}
	// Demoted-but-resident (clean) extents still serve reads from the
	// front tier.
	before := ts.FrontReadHits
	if _, err := r.st.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if ts := r.st.TierStats(); ts.FrontReadHits == before {
		t.Fatal("clean resident extent read missed the front")
	}
}

func TestTierCrashRecoversDirtyData(t *testing.T) {
	r := newRig(t, still, 8)

	data := make([]byte, 8192)
	rand.New(rand.NewSource(4)).Read(data)
	if _, err := r.st.WriteAt(data, 40960); err != nil {
		t.Fatal(err)
	}
	r.reopen(t, still)

	ts := r.st.TierStats()
	if ts.ResidentExtents == 0 {
		t.Fatal("crash forgot resident extents")
	}
	if ts.DirtyExtents == 0 {
		t.Fatal("recovery must conservatively mark residents dirty")
	}
	got := make([]byte, len(data))
	if _, err := r.st.ReadAt(got, 40960); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("acknowledged dirty data lost across crash")
	}
	if err := r.st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.back.ReadAt(got, 40960); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("recovered data not demoted to back tier")
	}
	r.st.Close()
}

func TestTierMapLossFullDemote(t *testing.T) {
	r := newRig(t, still, 8)

	data := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(data)
	if _, err := r.st.WriteAt(data, 16384); err != nil {
		t.Fatal(err)
	}
	// Lose the marking memory: the persisted map becomes garbage.
	if err := r.nv.Store([]byte("corrupt extent map")); err != nil {
		t.Fatal(err)
	}
	r.reopen(t, still)

	ts := r.st.TierStats()
	if !ts.MapRecovered {
		t.Fatal("map loss not detected")
	}
	if ts.ResidentExtents != 0 {
		t.Fatalf("full-demote recovery left %d residents", ts.ResidentExtents)
	}
	got := make([]byte, len(data))
	if _, err := r.st.ReadAt(got, 16384); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("map-loss recovery lost acknowledged data")
	}
	r.st.Close()
}

// TestTierDeletedMapRecoversFromTags: a *deleted* (empty) map file is
// indistinguishable from a first boot by the image alone; the slot
// tags must disambiguate, or dirty front data would be silently
// stranded behind an empty map.
func TestTierDeletedMapRecoversFromTags(t *testing.T) {
	r := newRig(t, still, 8)

	data := make([]byte, 4096)
	rand.New(rand.NewSource(6)).Read(data)
	if _, err := r.st.WriteAt(data, 16384); err != nil {
		t.Fatal(err)
	}
	// Delete the marking memory: the persisted map becomes empty, not
	// corrupt — the harder case, since empty is also what a fresh
	// store's NVRAM looks like.
	if err := r.nv.Store(nil); err != nil {
		t.Fatal(err)
	}
	r.reopen(t, still)

	ts := r.st.TierStats()
	if !ts.MapRecovered {
		t.Fatal("deleted map not detected as loss")
	}
	got := make([]byte, len(data))
	if _, err := r.st.ReadAt(got, 16384); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("deleted-map recovery lost acknowledged data")
	}
	r.st.Close()

	// A genuinely fresh store (blank fronts, empty NVRAM) must still
	// open as a first boot, not as a loss.
	r2 := newRig(t, still, 8)
	if r2.st.TierStats().MapRecovered {
		t.Fatal("fresh store misdiagnosed as map loss")
	}
	r2.st.Close()
}

func TestTierResilverPicksCopyZero(t *testing.T) {
	r := newRig(t, still, 8)

	data := bytes.Repeat([]byte{0xAA}, int(r.extentSz))
	if _, err := r.st.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Diverge copy 1 directly, as a torn mirror write would.
	torn := bytes.Repeat([]byte{0xBB}, 512)
	if _, err := r.front[1].WriteAt(torn, 0); err != nil {
		t.Fatal(err)
	}
	r.reopen(t, still)

	if r.st.TierStats().Resilvered == 0 {
		t.Fatal("reopen did not resilver the divergent pair")
	}
	// Every read must now see copy 0's content, whichever copy serves.
	for i := 0; i < 4; i++ {
		got := make([]byte, r.extentSz)
		if _, err := r.st.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d saw divergent mirror content", i)
		}
	}
	r.st.Close()
}

func TestTierFrontCopyFailureServesFromMirror(t *testing.T) {
	r := newRig(t, still, 8)
	defer r.st.Close()

	data := make([]byte, 4096)
	rand.New(rand.NewSource(6)).Read(data)
	if _, err := r.st.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	r.front[0].(*core.MemDevice).Fail()

	got := make([]byte, len(data))
	if _, err := r.st.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mirror copy served wrong data")
	}
	// Writes keep landing on the survivor, and a flush still demotes.
	if _, err := r.st.WriteAt(data, 1024); err != nil {
		t.Fatal(err)
	}
	if err := r.st.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.st.TierStats().DegradedWrites == 0 {
		t.Fatal("degraded write not counted")
	}
}

func TestTierBothCopiesFailedReportsLoss(t *testing.T) {
	r := newRig(t, still, 8)
	defer r.st.Close()

	data := make([]byte, 4096)
	if _, err := r.st.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	r.front[0].(*core.MemDevice).Fail()
	r.front[1].(*core.MemDevice).Fail()

	_, err := r.st.ReadAt(make([]byte, 4096), 0)
	if !errors.Is(err, ErrDataLoss) {
		t.Fatalf("want ErrDataLoss with both copies gone, got %v", err)
	}
}

func TestTierEvictionReclaimsCleanSlots(t *testing.T) {
	r := newRig(t, still, 2)
	defer r.st.Close()

	buf := make([]byte, 4096)
	// Fill both slots, demote them clean, then promote two more
	// extents: the clean occupants must be evicted, not block.
	for ext := int64(0); ext < 2; ext++ {
		rand.New(rand.NewSource(ext)).Read(buf)
		if _, err := r.st.WriteAt(buf, ext*r.extentSz); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.st.Flush(); err != nil {
		t.Fatal(err)
	}
	for ext := int64(2); ext < 4; ext++ {
		rand.New(rand.NewSource(ext)).Read(buf)
		if _, err := r.st.WriteAt(buf, ext*r.extentSz); err != nil {
			t.Fatal(err)
		}
	}
	ts := r.st.TierStats()
	if ts.Evictions == 0 {
		t.Fatalf("no evictions with a full pair: %+v", ts)
	}
	// All four extents must read back correctly wherever they live.
	for ext := int64(0); ext < 4; ext++ {
		rand.New(rand.NewSource(ext)).Read(buf)
		got := make([]byte, len(buf))
		if _, err := r.st.ReadAt(got, ext*r.extentSz); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("extent %d corrupted after eviction cycle", ext)
		}
	}
}

func TestTierAllSlotsDirtyWritesAround(t *testing.T) {
	r := newRig(t, still, 2)
	defer r.st.Close()

	buf := make([]byte, 4096)
	for ext := int64(0); ext < 4; ext++ {
		rand.New(rand.NewSource(100 + ext)).Read(buf)
		if _, err := r.st.WriteAt(buf, ext*r.extentSz); err != nil {
			t.Fatal(err)
		}
	}
	ts := r.st.TierStats()
	if ts.WriteArounds == 0 {
		t.Fatal("dirty-full pair must write around, not fail")
	}
	for ext := int64(0); ext < 4; ext++ {
		rand.New(rand.NewSource(100 + ext)).Read(buf)
		got := make([]byte, len(buf))
		if _, err := r.st.ReadAt(got, ext*r.extentSz); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("extent %d corrupted", ext)
		}
	}
}

func TestTagRoundTrip(t *testing.T) {
	for _, ext := range []int64{0, 1, 12345, 1 << 40} {
		tag := encodeTag(ext)
		got, ok := decodeTag(tag)
		if !ok || got != ext {
			t.Fatalf("tag round trip: ext %d -> %d ok=%v", ext, got, ok)
		}
	}
	if _, ok := decodeTag(make([]byte, tagSize)); ok {
		t.Fatal("zero tag decoded as valid")
	}
	tag := encodeTag(7)
	tag[9] ^= 1
	if _, ok := decodeTag(tag); ok {
		t.Fatal("corrupt tag decoded as valid")
	}
}

func TestExtentMapSerializeRoundTrip(t *testing.T) {
	m := newExtentMap(16, 100)
	m.set(3, 42)
	m.set(10, 7)
	img := m.serialize(16<<10, 0b10)
	got, mask, err := deserializeMap(img, 16<<10, 16, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.byExtent[42] != 3 || got.byExtent[7] != 10 || len(got.byExtent) != 2 {
		t.Fatalf("map round trip: %+v", got.byExtent)
	}
	if mask != 0b10 {
		t.Fatalf("failed-copy mask round trip: got %b, want 10", mask)
	}
	// Geometry mismatches and corruption must fail loudly.
	if _, _, err := deserializeMap(img, 32<<10, 16, 100); err == nil {
		t.Fatal("extent-size mismatch accepted")
	}
	if _, _, err := deserializeMap(img[:30], 16<<10, 16, 100); err == nil {
		t.Fatal("truncated image accepted")
	}
	img[40] ^= 0xFF // corrupt the slot table
	if _, _, err := deserializeMap(img, 16<<10, 16, 100); err == nil {
		t.Fatal("corrupt table accepted (bitmap cross-check failed to fire)")
	}
}

// TestRangeChecksDoNotOverflow: a range whose end overflows int64, or that
// starts before zero, is refused with an error by reads and writes alike —
// never wrapped past the capacity check into a slice panic.
func TestRangeChecksDoNotOverflow(t *testing.T) {
	r := newRig(t, still, 8)
	defer r.st.Close()
	buf := make([]byte, 200)
	for _, off := range []int64{math.MaxInt64 - 100, math.MaxInt64, -1, math.MinInt64} {
		if _, err := r.st.ReadAt(buf, off); err == nil {
			t.Errorf("ReadAt at %d succeeded", off)
		}
		if _, err := r.st.WriteAt(buf, off); err == nil {
			t.Errorf("WriteAt at %d succeeded", off)
		}
	}
	if _, err := r.st.ReadAt(buf, r.st.Capacity()-int64(len(buf))); err != nil {
		t.Errorf("ReadAt of the last bytes: %v", err)
	}
}
