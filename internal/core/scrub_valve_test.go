package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/nvram"
	"afraid/internal/testutil"
)

// slowDev wraps a device with a switchable per-read delay, so a test
// can make parity rebuilds expensive (each rebuild reads every data
// unit) without slowing the data-only writes that build the backlog.
type slowDev struct {
	BlockDevice
	readDelay atomic.Int64 // nanoseconds per ReadAt
}

func (d *slowDev) ReadAt(p []byte, off int64) (int, error) {
	if dl := d.readDelay.Load(); dl > 0 {
		time.Sleep(time.Duration(dl))
	}
	return d.BlockDevice.ReadAt(p, off)
}

// openSlow builds a 5-disk store over slowDev-wrapped memory devices:
// 2 MB disks at 4 KB units = 512 stripes.
func openSlow(t *testing.T, opts Options) (*Store, []*slowDev) {
	t.Helper()
	opts.StripeUnit = testUnit
	slows := make([]*slowDev, 5)
	devs := make([]BlockDevice, len(slows))
	for i := range slows {
		slows[i] = &slowDev{BlockDevice: NewMemDevice(2 << 20)}
		devs[i] = slows[i]
	}
	s, err := Open(devs, &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, slows
}

// markBacklog dirties every stripe directly in the marking memory,
// bypassing WriteAt so the pressure valve can't cap the backlog while
// it is being built.
func markBacklog(t *testing.T, s *Store) int64 {
	t.Helper()
	stripes := s.geo.Stripes()
	for st := int64(0); st < stripes; st++ {
		if err := s.eng.Mark(st); err != nil {
			t.Fatal(err)
		}
	}
	return stripes
}

// TestKickScrubBoundsInlineRebuilds is the regression test for the
// pressure-valve stall: with the dirty backlog far over threshold, one
// foreground write used to be held rebuilding the entire backlog
// inline. The valve must now rebuild at most nvram.MaxInline stripes
// and return.
func TestKickScrubBoundsInlineRebuilds(t *testing.T) {
	const th = 8
	s, slows := openSlow(t, Options{Mode: Afraid, DirtyThreshold: th, DisableScrubber: true})
	stripes := markBacklog(t, s)

	// Each stripe rebuild reads 4 data units; at 2ms per read the old
	// unbounded valve would hold the write for (512-8)×4×2ms ≈ 4s.
	perRead := 2 * time.Millisecond
	for _, d := range slows {
		d.readDelay.Store(int64(perRead))
	}

	buf := make([]byte, 512)
	start := time.Now()
	if _, err := s.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	// Generous bound for slow CI: the bounded valve does 4 rebuilds
	// (~32ms of injected delay); a quarter of the unbounded cost means
	// the old behaviour is back.
	unbounded := time.Duration(stripes-th) * 4 * perRead
	if elapsed > unbounded/4 {
		t.Fatalf("write under backlog took %v (unbounded cost ~%v): inline scrub pass is not bounded", elapsed, unbounded)
	}
	if dirty := s.DirtyStripes(); dirty <= 2*th {
		t.Fatalf("backlog drained to %d stripes inline; the valve should have stopped at %d rebuilds", dirty, nvram.MaxInline)
	}
	if got := s.Stats().InlineScrubs; got != nvram.MaxInline {
		t.Fatalf("InlineScrubs = %d, want %d", got, nvram.MaxInline)
	}
}

// TestKickScrubHandsBacklogToScrubber verifies the second half of the
// valve: what the bounded inline pass doesn't rebuild, the kick hands to
// the scrubber goroutine. ScrubIdle is an hour, so the loop's poll
// ticker (ScrubIdle/4) cannot be what drains the backlog promptly.
func TestKickScrubHandsBacklogToScrubber(t *testing.T) {
	const th = 8
	s, _ := openSlow(t, Options{Mode: Afraid, DirtyThreshold: th, ScrubIdle: time.Hour})
	markBacklog(t, s)

	if _, err := s.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.DirtyStripes() > th {
		if time.Now().After(deadline) {
			t.Fatalf("backlog stuck at %d dirty stripes: kick did not reach the scrubber", s.DirtyStripes())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := s.Stats(); st.ForcedEpisodes == 0 {
		t.Fatalf("stats = %+v, want at least one forced episode", st)
	}
}

// TestIdleScrubPreemptedByForegroundWrite is the deterministic
// regression test for the idle-sample race: a write landing between the
// scrubber's idle check and the rebuild must not have its fresh mark
// consumed as idle scrubbing. The engine re-checks the foreground
// generation under the stripe lock (Claim.Proceed). There is no scrubber
// goroutine: the test runs the episodes itself, and holds stripe 0's
// lock so the first is parked exactly between its sample and that
// re-check.
func TestIdleScrubPreemptedByForegroundWrite(t *testing.T) {
	s, _ := openSlow(t, Options{Mode: Afraid, DisableScrubber: true, ScrubIdle: time.Nanosecond})
	buf := make([]byte, 512)
	if _, err := s.WriteAt(buf, 0); err != nil { // dirties stripe 0
		t.Fatal(err)
	}

	// The idle path samples the generation...
	lk := s.stripeLock(0)
	lk.Lock()
	polled := make(chan struct{})
	go func() { s.eng.Poll(); close(polled) }()
	testutil.Eventually(t, "the idle episode to claim stripe 0", func() bool { return s.Stats().IdleEpisodes == 1 })
	// ...and a foreground write lands before the rebuild gets its lock.
	_, err := s.WriteAt(buf, s.geo.StripeDataBytes())
	lk.Unlock()
	<-polled
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ScrubPreempts != 1 || st.ScrubbedStripes != 0 || st.DirtyStripes != 2 {
		t.Fatalf("stats after preempt = %+v, want 1 preempt, 0 scrubbed, 2 dirty", st)
	}

	// With a current generation the rebuild proceeds.
	s.eng.Poll()
	if st := s.Stats(); st.ScrubbedStripes != 2 || st.DirtyStripes != 0 || st.ScrubPreempts != 1 {
		t.Fatalf("stats after scrub = %+v, want 2 scrubbed, 0 dirty", st)
	}
}

// TestScrubGenRaceUnderLoad drives concurrent writers against a live
// scrubber with a tight idle threshold and a dirty threshold, so the
// idle path, the forced path, the inline valve, and the gen re-check
// all race under -race. Parity must still verify after a final flush.
func TestScrubGenRaceUnderLoad(t *testing.T) {
	s, _ := openSlow(t, Options{Mode: Afraid, ScrubIdle: time.Millisecond, DirtyThreshold: 4})
	const workers = 4
	var wg sync.WaitGroup
	region := s.geo.Capacity() / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := pattern(testUnit, byte(w))
			base := int64(w) * region
			for i := 0; i < 200; i++ {
				off := base + int64(i%32)*testUnit
				if _, err := s.WriteAt(buf, off); err != nil {
					t.Error(err)
					return
				}
				if i%16 == 0 {
					time.Sleep(time.Millisecond) // open idle windows
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("inconsistent parity on stripes %v after concurrent scrub/write", bad)
	}
	st := s.Stats()
	if st.ScrubbedStripes == 0 {
		t.Fatal("scrubber never ran")
	}
	if st.DirtyHighWater == 0 {
		t.Fatal("dirty high-water mark never recorded")
	}
}
