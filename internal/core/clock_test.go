package core

import (
	"testing"
	"time"

	"afraid/internal/testutil"
)

// TestClockReadsPerOp pins how often one single-stripe request reads the
// store's clock: once on entry, once after its stripe lock and once after
// the unlock, plus two for each timed step beneath — a parity computation,
// the I/O a stripe fan-out keeps for itself, a checksummed member read. A
// change that moves a count says why. The clock steps a millisecond a
// read, so every member reads as slow and the read cache engages.
func TestClockReadsPerOp(t *testing.T) {
	const unit = 8 << 10
	open := func(opts Options) (*Store, *testutil.Clock) {
		t.Helper()
		clock := &testutil.Clock{Step: time.Millisecond}
		devs := make([]BlockDevice, 5)
		for i := range devs {
			devs[i] = NewMemDevice(64 * unit)
		}
		opts.StripeUnit, opts.DisableScrubber = unit, true
		s, err := Open(devs, &MemNVRAM{}, WithClock(opts, clock))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s, clock
	}
	reads := func(name string, clock *testutil.Clock, want int64, op func() (int, error)) {
		t.Helper()
		r0 := clock.Reads()
		if _, err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := clock.Reads() - r0; got != want {
			t.Errorf("%s read the clock %d times, want %d", name, got, want)
		}
	}
	buf := make([]byte, 4<<10)

	s, clock := open(Options{Mode: Afraid})
	sdb := s.Geometry().StripeDataBytes()
	for i := 0; i < 2; i++ { // two slow member reads engage the read cache
		if _, err := s.ReadAt(buf, 8*sdb); err != nil {
			t.Fatal(err)
		}
	}
	reads("afraid 4 KiB partial write", clock, 3, func() (int, error) { return s.WriteAt(buf, 0) })
	reads("afraid 4 KiB read, from the members", clock, 3, func() (int, error) { return s.ReadAt(buf, sdb) })
	if _, err := s.ReadAt(buf, sdb); err != nil { // the unit's second touch admits it
		t.Fatal(err)
	}
	hits := s.Stats().ReadCacheHits
	reads("read the cache serves", clock, 3, func() (int, error) { return s.ReadAt(buf, sdb) })
	if s.Stats().ReadCacheHits != hits+1 {
		t.Error("the read cache did not serve the read")
	}
	reads("afraid full-stripe write", clock, 7, func() (int, error) { return s.WriteAt(make([]byte, sdb), 2*sdb) })
	if s.Stats().FullStripeWrites != 1 {
		t.Error("the full-stripe write was not one")
	}

	s, clock = open(Options{Mode: Raid5})
	reads("raid5 4 KiB partial write", clock, 9, func() (int, error) { return s.WriteAt(buf, 0) })

	s, clock = open(Options{Mode: Afraid, Checksums: true})
	reads("afraid 4 KiB partial write, checksums on", clock, 5, func() (int, error) { return s.WriteAt(buf, 0) })
}
