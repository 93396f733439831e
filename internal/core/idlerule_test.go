package core

import (
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/testutil"
)

// readGate holds the first member read after it is armed, whichever member
// takes it, until release closes.
type readGate struct {
	armed            atomic.Bool
	reached, release chan struct{}
}

type gatedReads struct {
	*MemDevice
	g *readGate
}

func (d gatedReads) ReadAt(p []byte, off int64) (int, error) {
	if d.g.armed.CompareAndSwap(true, false) {
		close(d.g.reached)
		<-d.g.release
	}
	return d.MemDevice.ReadAt(p, off)
}

// TestScrubWaitsForCompletion: the scrubber's idle rule is the paper's
// "completely idle". A read that began more than ScrubIdle ago and is still
// in flight keeps the store busy, and the drain starts exactly ScrubIdle
// after the read completes, not 1 ns before.
func TestScrubWaitsForCompletion(t *testing.T) {
	g := &readGate{reached: make(chan struct{}), release: make(chan struct{})}
	devs := make([]BlockDevice, 5)
	for i := range devs {
		devs[i] = gatedReads{NewMemDevice(testDisk), g}
	}
	var clock testutil.Clock
	opts := WithClock(Options{Mode: Afraid, ScrubIdle: 20 * time.Millisecond, StripeUnit: testUnit, DisableScrubber: true}, &clock)
	s, err := Open(devs, &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.WriteAt(pattern(testUnit, 1), 0); err != nil {
		t.Fatal(err)
	}

	g.armed.Store(true)
	read := make(chan error, 1)
	go func() {
		_, err := s.ReadAt(make([]byte, testUnit), 5*s.Geometry().StripeDataBytes())
		read <- err
	}()
	<-g.reached
	clock.Advance(2 * opts.ScrubIdle)
	s.Engine().Poll()
	if got := s.DirtyStripes(); got != 1 {
		t.Fatalf("scrubbed while a read begun 2×ScrubIdle ago was in flight: %d dirty, want 1", got)
	}

	close(g.release)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	clock.Advance(opts.ScrubIdle - 1)
	s.Engine().Poll()
	if got := s.DirtyStripes(); got != 1 {
		t.Fatalf("scrubbed 1 ns before ScrubIdle after the read completed: %d dirty, want 1", got)
	}
	clock.Advance(1)
	s.Engine().Poll()
	if got := s.DirtyStripes(); got != 0 {
		t.Fatalf("no scrub ScrubIdle after the read completed: %d dirty, want 0", got)
	}
}
