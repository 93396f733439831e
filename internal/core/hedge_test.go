package core_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/fault"
	"afraid/internal/testutil"
)

// hedgeDev is a member that asks for its reads to be hedged after a
// millisecond.
type hedgeDev struct{ *fault.Device }

func (hedgeDev) HedgeDelay() time.Duration { return time.Millisecond }

// A hedged read returns with its losing branch still reading the members.
// Close waits for that branch, so no member read starts after Close has
// returned.
func TestCloseWaitsForHedgeLosers(t *testing.T) {
	const unit = 512
	devs := make([]*fault.Device, 4)
	members := make([]core.BlockDevice, len(devs))
	for i := range devs {
		devs[i] = fault.New(core.NewMemDevice(16*unit), int64(i))
		members[i] = hedgeDev{devs[i]}
	}
	s, err := core.Open(members, &core.MemNVRAM{}, core.Options{Mode: core.Raid5, StripeUnit: unit, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, s.Capacity())
	rand.New(rand.NewSource(3)).Read(img)
	if _, err := s.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// The primary answers after 4 ms and the others after 25 ms each: the
	// hedge fires at 1 ms and loses, its solve reading the survivors.
	home := s.Geometry().DataDisk(0, 0)
	reads := func() (n uint64) {
		for _, d := range devs {
			n += d.Stats().Reads
		}
		return n
	}
	before := reads()
	for i, d := range devs {
		delay := 25 * time.Millisecond
		if i == home {
			delay = 4 * time.Millisecond
		}
		d.AddRule(fault.Rule{When: fault.Reads(), Do: fault.Delay(delay)})
	}
	got := make([]byte, unit)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img[:unit]) {
		t.Fatal("hedged read returned wrong data")
	}
	if st := s.Stats(); st.HedgedReads != 1 || st.HedgeWins != 0 {
		t.Fatalf("hedged=%d wins=%d: the hedge was to fire and lose", st.HedgedReads, st.HedgeWins)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	atClose := reads()
	// The primary's read, and one of each survivor for the solve.
	testutil.Eventually(t, "the hedged read's member reads", func() bool { return reads() >= before+4 })
	if n := reads(); n != atClose {
		t.Fatalf("%d member reads started after Close returned", n-atClose)
	}
}
