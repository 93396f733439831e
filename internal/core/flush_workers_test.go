package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The tests here cover the parallel drain machinery: the ScrubWorkers
// knob, concurrent Flush under live writers, the claim set that keeps
// workers off each other's stripes, and the ordering guarantees of the
// parallel RepairDisk sweep.

func TestScrubWorkersDefault(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, StripeUnit: testUnit, DisableScrubber: true})
	want := runtime.GOMAXPROCS(0)
	if dd := s.geo.DataDisks(); want > dd {
		want = dd
	}
	if got := s.scrubWorkers(); got != want {
		t.Fatalf("default scrubWorkers = %d, want min(GOMAXPROCS, data disks) = %d", got, want)
	}

	s2, _ := openTest(t, Options{Mode: Afraid, StripeUnit: testUnit, DisableScrubber: true, ScrubWorkers: 3})
	if got := s2.scrubWorkers(); got != 3 {
		t.Fatalf("scrubWorkers with override = %d, want 3", got)
	}
}

// TestFlushUnderConcurrentWrites hammers a multi-worker Flush with
// live writers and a live scrubber: Flush must terminate, and after
// the writers stop a final Flush must leave every stripe's parity
// consistent. Run with -race: the claim set, the unit fan-out, and
// the pooled stripe arenas all cross goroutines here.
func TestFlushUnderConcurrentWrites(t *testing.T) {
	opts := Options{Mode: Afraid, StripeUnit: testUnit, ScrubIdle: 2 * time.Millisecond,
		DirtyThreshold: 8, ScrubWorkers: 4}
	devs := newDevs(5)
	s, err := Open(devs, &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers = 4
	region := s.Capacity() / writers
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := pattern(testUnit, byte(w))
			base := int64(w) * region
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				off := base + int64(i%32)*testUnit
				if _, err := s.WriteAt(buf, off); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Flushes racing the writers: each must drain to zero dirty stripes
	// at some instant, even though writers immediately re-dirty.
	for i := 0; i < 20; i++ {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("parity inconsistent after concurrent flushes: %v", bad)
	}
}

// gatedDev blocks every ReadAt while the gate is armed, and signals
// the first blocked reader's arrival. It lets a test freeze a parity
// rebuild mid-read, deterministically, at the point where the drain
// worker holds the stripe lock.
type gatedDev struct {
	BlockDevice
	mu      sync.Mutex
	gate    chan struct{}
	entered chan struct{}
	once    *sync.Once
}

func (d *gatedDev) arm() {
	d.mu.Lock()
	d.gate = make(chan struct{})
	d.entered = make(chan struct{})
	d.once = new(sync.Once)
	d.mu.Unlock()
}

func (d *gatedDev) release() {
	d.mu.Lock()
	if d.gate != nil {
		close(d.gate)
		d.gate = nil
	}
	d.mu.Unlock()
}

func (d *gatedDev) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	gate, entered, once := d.gate, d.entered, d.once
	d.mu.Unlock()
	if gate != nil {
		once.Do(func() { close(entered) })
		<-gate
	}
	return d.BlockDevice.ReadAt(p, off)
}

// TestParallelFlushDoesNotUnmarkReDirtiedStripe pins down the ordering
// guarantee of the drain: scrubOne unmarks a stripe only while holding
// its stripe lock, so a write that re-dirties the stripe serializes
// after the rebuild and its fresh mark survives. The test freezes a
// multi-worker Flush mid-rebuild with a gated device, lands a write on
// the same stripe (which must block), then verifies the write's data
// is redundant — if the unmark had clobbered the re-dirty, the final
// parity check would flag the stripe.
func TestParallelFlushDoesNotUnmarkReDirtiedStripe(t *testing.T) {
	gated := &gatedDev{BlockDevice: NewMemDevice(testDisk)}
	devs := newDevs(5)
	devs[0] = gated
	s, err := Open(devs, &MemNVRAM{}, Options{Mode: Afraid, StripeUnit: testUnit,
		DisableScrubber: true, ScrubWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	old := pattern(testUnit, 1)
	if _, err := s.WriteAt(old, 0); err != nil { // dirties stripe 0
		t.Fatal(err)
	}

	gated.arm()
	flushDone := make(chan error, 1)
	go func() { flushDone <- s.Flush() }()
	<-gated.entered // a drain worker is mid-rebuild, stripe lock held

	// A re-dirtying write to the same stripe must wait for the rebuild.
	fresh := pattern(testUnit, 2)
	writeDone := make(chan error, 1)
	go func() {
		_, err := s.WriteAt(fresh, 0)
		writeDone <- err
	}()
	select {
	case err := <-writeDone:
		t.Fatalf("write to stripe under rebuild completed early (err=%v); stripe lock not held", err)
	case <-time.After(20 * time.Millisecond):
	}

	gated.release()
	if err := <-flushDone; err != nil {
		t.Fatal(err)
	}
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}

	// The fresh data must read back and, after a final drain, verify:
	// a lost mark would leave stale parity that CheckParity flags.
	got := make([]byte, testUnit)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("re-dirtying write's data lost")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("stripe parity stale after re-dirty during flush: %v", bad)
	}
}

// TestParallelParityPointAndCheckParity verifies the worker-pool
// versions agree with the semantics of the serial ones: CheckParity
// reports exactly the dirty stripes in ascending order, and a
// multi-stripe ParityPoint clears exactly its span.
func TestParallelParityPointAndCheckParity(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, StripeUnit: testUnit,
		DisableScrubber: true, ScrubWorkers: 4})
	span := s.geo.StripeDataBytes()

	dirty := []int64{2, 3, 5, 9, 17, 33}
	for _, st := range dirty {
		if _, err := s.WriteAt(pattern(testUnit, byte(st)), st*span); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != len(dirty) {
		t.Fatalf("CheckParity = %v, want %v", bad, dirty)
	}
	for i, st := range bad {
		if st != dirty[i] {
			t.Fatalf("CheckParity = %v, want %v (ascending)", bad, dirty)
		}
	}

	// Commit stripes 2..9 (covers dirty 2,3,5,9); 17 and 33 stay exposed.
	if err := s.ParityPoint(2*span, 8*span); err != nil {
		t.Fatal(err)
	}
	bad, err = s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 || bad[0] != 17 || bad[1] != 33 {
		t.Fatalf("CheckParity after partial parity point = %v, want [17 33]", bad)
	}
	if got := s.DirtyStripes(); got != 2 {
		t.Fatalf("DirtyStripes = %d, want 2", got)
	}
}

// TestRepairReportSorted verifies the parallel repair sweep: stripes
// complete out of order across workers, but the damage report must
// come back merged and sorted by offset, and cover exactly the stripes
// that were dirty at failure time.
func TestRepairReportSorted(t *testing.T) {
	s, _ := openTest(t, Options{Mode: Afraid, StripeUnit: testUnit,
		DisableScrubber: true, ScrubWorkers: 4})
	span := s.geo.StripeDataBytes()

	dirty := []int64{1, 4, 7, 19, 23, 40, 41, 42, 60}
	for _, st := range dirty {
		if _, err := s.WriteAt(pattern(testUnit, byte(st)), st*span); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	report, err := s.RepairDisk(2, NewMemDevice(testDisk))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Lost) == 0 {
		t.Fatal("dirty stripes at failure produced no damage report")
	}
	for i := 1; i < len(report.Lost); i++ {
		if report.Lost[i].Offset <= report.Lost[i-1].Offset {
			t.Fatalf("damage report out of order at %d: %+v", i, report.Lost)
		}
	}
	lostStripes := make(map[int64]bool)
	for _, d := range report.Lost {
		lostStripes[d.Stripe] = true
	}
	for st := range lostStripes {
		found := false
		for _, d := range dirty {
			if d == st {
				found = true
			}
		}
		if !found {
			t.Fatalf("stripe %d reported lost but was never dirty", st)
		}
	}
	// The array must be fully redundant after repair.
	if bad, err := s.CheckParity(); err != nil || len(bad) != 0 {
		t.Fatalf("after repair: bad=%v err=%v", bad, err)
	}
}

// TestParityPointSharesTheScrubPath pins the two places ParityPoint used
// to diverge from every other drain, back when it had its own copy of
// the rebuild: a member fail-stop first seen by a parity point demotes
// the disk and reports the degraded array as Flush does, and each
// stripe it makes redundant is timed into scrub_stripe.
func TestParityPointSharesTheScrubPath(t *testing.T) {
	s, devs := openTest(t, Options{Mode: Afraid, StripeUnit: testUnit, DisableScrubber: true, ScrubWorkers: 2})
	defer s.Close()
	span := s.geo.StripeDataBytes()
	const k = 6
	for st := int64(0); st < 2*k; st++ {
		if _, err := s.WriteAt(pattern(testUnit, byte(st)), st*span); err != nil {
			t.Fatal(err)
		}
	}
	scrubbed := func() uint64 { return s.Obs().Histogram("scrub_stripe").Snapshot().Count }
	before := scrubbed()
	if err := s.ParityPoint(0, k*span); err != nil {
		t.Fatal(err)
	}
	if got := scrubbed() - before; got != k {
		t.Fatalf("ParityPoint over %d dirty stripes grew scrub_stripe by %d", k, got)
	}

	devs[2].(*MemDevice).Fail() // the device dies; the store has not noticed yet
	err := s.ParityPoint(k*span, k*span)
	if !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("ParityPoint on a dying member = %v, want an ErrTooManyFailures-class error like Flush", err)
	}
	if dead := s.DeadDisks(); len(dead) != 1 || dead[0] != 2 {
		t.Fatalf("DeadDisks = %v after the parity point hit the failure, want [2]", dead)
	}
	if ferr := s.Flush(); !errors.Is(ferr, ErrTooManyFailures) {
		t.Fatalf("Flush = %v", ferr)
	}
	if got := s.DirtyStripes(); got != k {
		t.Fatalf("DirtyStripes = %d, want the %d the degraded array could not scrub", got, k)
	}
}
