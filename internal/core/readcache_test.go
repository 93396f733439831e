package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/fault"
	"afraid/internal/testutil"
)

// The read cache (readcache.go) over members slower than a memory copy:
// five fault devices whose reads each take cacheDelay, an AFRAID store of
// 8 KiB units on them. Units are client stripe units; unit u is client
// bytes [u·8K, (u+1)·8K).

const cacheUnit, cacheDelay = 8 << 10, 50 * time.Microsecond

// openSlow opens an AFRAID store over five members that take cacheDelay
// per read, and engages its cache: the two reads far from the units the
// tests use each take the delay.
func openSlow(t *testing.T) (*core.Store, []*fault.Device) {
	t.Helper()
	backings := make([]core.BlockDevice, 5)
	for i := range backings {
		backings[i] = core.NewMemDevice(32 * cacheUnit)
	}
	devs := fault.Wrap(backings, 45, fault.Rule{When: fault.Reads(), Do: fault.Delay(cacheDelay)})
	s, err := core.Open(fault.Devices(devs), &core.MemNVRAM{}, core.Options{
		Mode: core.Afraid, StripeUnit: cacheUnit, DisableScrubber: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	buf := make([]byte, 512)
	for _, off := range []int64{s.Capacity() - 4*cacheUnit, s.Capacity() - 2*cacheUnit} {
		if _, err := s.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	return s, devs
}

// memberReads is how many reads the members have served.
func memberReads(devs []*fault.Device) (n uint64) {
	for _, d := range devs {
		n += d.Stats().Reads
	}
	return n
}

// readFrom reads n bytes at off and reports how many member reads that
// took.
func readFrom(t *testing.T, s *core.Store, devs []*fault.Device, off, n int64) ([]byte, uint64) {
	t.Helper()
	got := make([]byte, n)
	r0 := memberReads(devs)
	if _, err := s.ReadAt(got, off); err != nil {
		t.Fatalf("read [%d, +%d): %v", off, n, err)
	}
	return got, memberReads(devs) - r0
}

func mustWrite(t *testing.T, s *core.Store, p []byte, off int64) {
	t.Helper()
	if _, err := s.WriteAt(p, off); err != nil {
		t.Fatalf("write [%d, +%d): %v", off, len(p), err)
	}
}

// TestReadCacheServesWhatWasWritten: a unit a write touches twice is
// admitted with the sectors the write covered, and a read inside them is
// served from memory — no member read — with the written bytes, and so is
// a read of the whole unit after a partial overwrite, unaligned at both
// ends, of a unit cached whole. A read that needs a sector the cache does
// not hold goes to the members, and what they return fills it in.
func TestReadCacheServesWhatWasWritten(t *testing.T) {
	s, devs := openSlow(t)
	shadow := make([]byte, 4*cacheUnit)
	write := func(p []byte, off int64) {
		mustWrite(t, s, p, off)
		copy(shadow[off:], p)
	}
	check := func(off, n int64, wantMemberReads bool) {
		t.Helper()
		got, reads := readFrom(t, s, devs, off, n)
		if !bytes.Equal(got, shadow[off:off+n]) {
			t.Fatalf("read [%d, +%d) returned bytes that were not written", off, n)
		}
		if (reads > 0) != wantMemberReads {
			t.Fatalf("read [%d, +%d) made %d member reads, want any: %v", off, n, reads, wantMemberReads)
		}
	}
	// Unit 0, whole: the second write admits it.
	write(bytes.Repeat([]byte{1}, cacheUnit), 0)
	write(bytes.Repeat([]byte{2}, cacheUnit), 0)
	check(0, cacheUnit, false)
	// A partial overwrite keeps it whole and current.
	p := make([]byte, 1000)
	rand.New(rand.NewSource(1)).Read(p)
	write(p, 700)
	check(0, cacheUnit, false)
	check(650, 1100, false)

	// Unit 2, bytes [1K, 4K): admitted holding only those sectors.
	q := make([]byte, 3<<10)
	rand.New(rand.NewSource(2)).Read(q)
	write(q, 2*cacheUnit+1<<10)
	write(q, 2*cacheUnit+1<<10)
	check(2*cacheUnit+1<<10, 3<<10, false)
	check(2*cacheUnit, cacheUnit, true) // sectors [0, 1K) and [4K, 8K) are not cached
	check(2*cacheUnit, cacheUnit, false)

	st := s.Stats()
	if st.ReadCacheHits != 5 || st.ReadCacheMisses != 1 {
		t.Fatalf("ReadCacheHits, ReadCacheMisses = %d, %d; want 5, 1", st.ReadCacheHits, st.ReadCacheMisses)
	}
}

// TestReadCacheEngagesOnlyOverSlowMembers: over members as fast as memory
// no unit is admitted — the cache is never consulted, and every read goes
// to the members — while the same requests over members that take
// cacheDelay per read are served from memory. The fast store runs on a
// held clock, on which its memory members take no time at all, with or
// without the race detector.
func TestReadCacheEngagesOnlyOverSlowMembers(t *testing.T) {
	run := func(s *core.Store) core.Stats {
		p := bytes.Repeat([]byte{7}, cacheUnit)
		got := make([]byte, cacheUnit)
		for i := 0; i < 8; i++ {
			mustWrite(t, s, p, cacheUnit)
			if _, err := s.ReadAt(got, cacheUnit); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, p) {
				t.Fatal("read returned bytes that were not written")
			}
		}
		return s.Stats()
	}
	devs := make([]core.BlockDevice, 5)
	for i := range devs {
		devs[i] = core.NewMemDevice(32 * cacheUnit)
	}
	fast, err := core.Open(devs, &core.MemNVRAM{}, core.WithClock(core.Options{Mode: core.Afraid, StripeUnit: cacheUnit, DisableScrubber: true}, &testutil.Clock{}))
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if st := run(fast); st.ReadCacheHits != 0 || st.ReadCacheMisses != 0 {
		t.Fatalf("over memory members: %d hits, %d misses; want the cache never consulted", st.ReadCacheHits, st.ReadCacheMisses)
	}
	slow, _ := openSlow(t)
	if st := run(slow); st.ReadCacheHits < 7 {
		t.Fatalf("over slow members: %d hits of 8 re-reads", st.ReadCacheHits)
	}
}

// TestReadCacheDropsFailedWrite: a write that fails — its member refuses
// it with an error that is not a fail-stop — drops the units it touched,
// so the next read goes to the members for whatever landed, not to the
// bytes cached before it.
func TestReadCacheDropsFailedWrite(t *testing.T) {
	s, devs := openSlow(t)
	old := bytes.Repeat([]byte{3}, cacheUnit)
	mustWrite(t, s, old, 0)
	mustWrite(t, s, old, 0)
	if _, reads := readFrom(t, s, devs, 0, cacheUnit); reads != 0 {
		t.Fatalf("unit 0 not cached: %d member reads", reads)
	}
	ext := s.Geometry().Split(0, cacheUnit)[0].Extents[0]
	boom := errors.New("member refuses the write")
	devs[ext.Disk].AddRule(fault.Rule{When: fault.All(fault.Writes(), fault.InRange(ext.DiskOff, cacheUnit)), Do: fault.Transient(boom), Max: 1})
	if _, err := s.WriteAt(bytes.Repeat([]byte{4}, cacheUnit), 0); !errors.Is(err, boom) {
		t.Fatalf("write = %v, want %v", err, boom)
	}
	if _, reads := readFrom(t, s, devs, 0, cacheUnit); reads == 0 {
		t.Fatal("a unit whose write failed was served from the cache")
	}
}

// TestReadCacheKeepsTheLossContract: a unit cached on a dirty stripe — an
// AFRAID write leaves its parity stale — reads as ErrDataLoss once its
// member fails, exactly as without a cache: FailDisk drops the cache, and a
// degraded array admits nothing.
func TestReadCacheKeepsTheLossContract(t *testing.T) {
	s, devs := openSlow(t)
	p := bytes.Repeat([]byte{5}, cacheUnit)
	mustWrite(t, s, p, 0)
	mustWrite(t, s, p, 0)
	if _, reads := readFrom(t, s, devs, 0, cacheUnit); reads != 0 {
		t.Fatalf("unit 0 not cached: %d member reads", reads)
	}
	if s.DirtyStripes() == 0 {
		t.Fatal("the write left no stripe dirty")
	}
	if err := s.FailDisk(s.Geometry().Split(0, cacheUnit)[0].Extents[0].Disk); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, cacheUnit)
	for i := 0; i < 3; i++ {
		if _, err := s.ReadAt(got, 0); !errors.Is(err, core.ErrDataLoss) {
			t.Fatalf("read %d of a lost unit = %v, want %v", i, err, core.ErrDataLoss)
		}
	}
	// A unit of the same stripe on a surviving member still reads, from the
	// members: a degraded array serves no cached bytes.
	mustWrite(t, s, p, cacheUnit)
	if _, reads := readFrom(t, s, devs, cacheUnit, cacheUnit); reads == 0 {
		t.Fatal("a degraded array served a read from the cache")
	}
	mustWrite(t, s, p, cacheUnit)
	if _, reads := readFrom(t, s, devs, cacheUnit, cacheUnit); reads == 0 {
		t.Fatal("a degraded array admitted a unit")
	}
}

// TestReadCacheUnderConcurrentIO races writers and readers over units they
// share a stripe with. Each writer owns some units and writes sector-aligned
// ranges of them, each sector stamped with its unit and a version, and
// reads back what it wrote; readers read anywhere and check every sector is
// one some write put there. At the end every unit reads as its owner last
// wrote it. Run under -race it also checks the cache's memory is only
// touched under its locks.
func TestReadCacheUnderConcurrentIO(t *testing.T) {
	s, _ := openSlow(t)
	const units, writers, readers, ops = 12, 3, 2, 60
	stamp := func(sector []byte, unit int64, version uint32) {
		for i := 0; i+12 <= len(sector); i += 12 {
			binary.LittleEndian.PutUint64(sector[i:], uint64(unit))
			binary.LittleEndian.PutUint32(sector[i+8:], version)
		}
	}
	// sane reports whether a sector read at client address off is zeroes or
	// one stamp of its unit throughout.
	sane := func(sector []byte, off int64) bool {
		if bytes.Equal(sector, make([]byte, len(sector))) {
			return true
		}
		v := binary.LittleEndian.Uint32(sector[8:])
		for i := 0; i+12 <= len(sector); i += 12 {
			if int64(binary.LittleEndian.Uint64(sector[i:])) != off/cacheUnit || binary.LittleEndian.Uint32(sector[i+8:]) != v {
				return false
			}
		}
		return true
	}
	shadow := make([]byte, units*cacheUnit)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			got := make([]byte, cacheUnit)
			for op := 0; op < ops; op++ {
				unit := int64(w + writers*rng.Intn(units/writers))
				lo := int64(rng.Intn(16)) * 512
				hi := lo + int64(1+rng.Intn(int(16-lo/512)))*512
				off := unit*cacheUnit + lo
				p := make([]byte, hi-lo)
				for i := int64(0); i < hi-lo; i += 512 {
					stamp(p[i:i+512], unit, uint32(op+1))
				}
				if _, err := s.WriteAt(p, off); err != nil {
					errs <- err
					return
				}
				copy(shadow[off:], p) // this writer's units only
				if _, err := s.ReadAt(got, unit*cacheUnit); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, shadow[unit*cacheUnit:(unit+1)*cacheUnit]) {
					errs <- errors.New("a writer read back a unit that is not what it wrote")
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for op := 0; op < 2*ops; op++ {
				off := int64(rng.Intn(units*cacheUnit/512-16)) * 512
				got := make([]byte, (1+rng.Intn(16))*512)
				if _, err := s.ReadAt(got, off); err != nil {
					errs <- err
					return
				}
				for i := 0; i < len(got); i += 512 {
					if !sane(got[i:i+512], off+int64(i)) {
						errs <- errors.New("a reader saw a sector no write put there")
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := make([]byte, len(shadow))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("units do not read as their owners last wrote them")
	}
	if s.Stats().ReadCacheHits == 0 {
		t.Fatal("no read was served from the cache")
	}
}
