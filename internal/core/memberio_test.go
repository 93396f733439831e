package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/fault"
)

// The stores below are RAID 5 over five members of 512-byte units: four
// data units, 2 KiB of data, per stripe.
const memberUnit, memberStripe = 512, 4 * 512

// readShapes are reads around data unit 1 of stripe 1: a range inside the
// unit, the unit, its stripe, and a run of two stripes.
var readShapes = []struct {
	name     string
	off, len int64
}{
	{"range", memberStripe + memberUnit + 100, 200},
	{"unit", memberStripe + memberUnit, memberUnit},
	{"stripe", memberStripe, memberStripe},
	{"run", memberStripe, 2 * memberStripe},
}

// openMembers opens a RAID 5 store over five fault devices, with or without
// checksums, and fills and flushes it, so every stripe is clean.
func openMembers(t *testing.T, checksums bool) (*core.Store, []*fault.Device, []byte) {
	t.Helper()
	backings := make([]core.BlockDevice, 5)
	for i := range backings {
		backings[i] = core.NewMemDevice(64 << 10)
	}
	devs := fault.Wrap(backings, 31)
	s, err := core.Open(fault.Devices(devs), &core.MemNVRAM{}, core.Options{
		Mode: core.Raid5, StripeUnit: memberUnit, Checksums: checksums, DisableScrubber: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	img := make([]byte, s.Capacity())
	rand.New(rand.NewSource(5)).Read(img)
	if _, err := s.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, devs, img
}

// TestMemberReadsHonourTheirDeadline: a read of members that stall past the
// request's deadline — on every read, or with checksums only on their slot
// reads — returns the context's error at the deadline, with checksums as
// without: the unit and its slot are read under the request's context,
// whichever shape the read takes.
func TestMemberReadsHonourTheirDeadline(t *testing.T) {
	for _, checksums := range []bool{false, true} {
		for _, slotsOnly := range []bool{false, true} {
			if slotsOnly && !checksums {
				continue
			}
			for _, sh := range readShapes {
				t.Run(fmt.Sprintf("checksums=%v/slots-only=%v/%s", checksums, slotsOnly, sh.name), func(t *testing.T) {
					s, devs, _ := openMembers(t, checksums)
					geo := s.Geometry()
					stall := fault.Reads()
					if slotsOnly {
						stall = fault.All(fault.Reads(), fault.Trailer())
					}
					for _, d := range devs {
						d.SetChecksumRegion(geo.DiskSize)
						d.AddRule(fault.Rule{When: stall, Do: fault.Delay(2 * time.Second)})
					}
					ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
					defer cancel()
					t0 := time.Now()
					_, err := s.ReadContext(ctx, make([]byte, sh.len), sh.off)
					if took := time.Since(t0); !errors.Is(err, context.DeadlineExceeded) || took > 500*time.Millisecond {
						t.Fatalf("read of 2 s members under a 50 ms deadline: err = %v after %v, want the deadline's error within 500 ms", err, took)
					}
				})
			}
		}
	}
}

// TestMemberReportedLossIsRepaired: a member that reports one unit of a
// clean stripe lost — a cluster node whose own array cannot cover it — has
// the unit solved from redundancy and rewritten, with checksums as without,
// whichever shape the read takes: the read returns the right bytes, and the
// unit is counted detected and repaired once.
func TestMemberReportedLossIsRepaired(t *testing.T) {
	for _, checksums := range []bool{false, true} {
		for _, sh := range readShapes {
			t.Run(fmt.Sprintf("checksums=%v/%s", checksums, sh.name), func(t *testing.T) {
				s, devs, img := openMembers(t, checksums)
				geo := s.Geometry()
				at, lost := geo.DiskOffset(1), true
				devs[geo.DataDisk(1, 1)].AddRule(fault.Rule{
					// The unit reads as lost until it is written again.
					When: func(op fault.Op, _ *rand.Rand) bool {
						in := op.Off < at+memberUnit && op.Off+int64(op.Len) > at
						lost = lost && !(in && op.Write)
						return in && !op.Write && lost
					},
					Do: fault.Transient(fmt.Errorf("member: %w", core.ErrDataLoss)),
				})
				buf := make([]byte, sh.len)
				if _, err := s.ReadAt(buf, sh.off); err != nil {
					t.Fatalf("read over a unit its member reports lost: %v", err)
				}
				if !bytes.Equal(buf, img[sh.off:sh.off+sh.len]) {
					t.Fatal("read over a unit its member reports lost returned the wrong bytes")
				}
				if st := s.Stats(); st.ChecksumDetected != 1 || st.ChecksumRepaired != 1 || st.ChecksumLost != 0 {
					t.Fatalf("detected %d, repaired %d, lost %d; want 1, 1, 0", st.ChecksumDetected, st.ChecksumRepaired, st.ChecksumLost)
				}
				if lost {
					t.Fatal("the lost unit was not rewritten")
				}
			})
		}
	}
}

// TestSecondMemberLostMidOpIsTooManyFailures: with one member of a RAID 5
// store already absent, a read or a write that finds a second member
// fail-stopped mid-span — one FailDisk refuses, the layout having one
// parity — fails with ErrTooManyFailures, wrapping the member's fail-stop
// error: the class it would have had if the store had known of both
// members before it began.
func TestSecondMemberLostMidOpIsTooManyFailures(t *testing.T) {
	s, devs, _ := openMembers(t, false)
	if err := s.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	off := int64(-1) // a data unit on member 1
	for o := int64(0); off < 0; o += memberUnit {
		if s.Geometry().Split(o, memberUnit)[0].Extents[0].Disk == 1 {
			off = o
		}
	}
	devs[1].Fail() // behind the store's back: it learns of it mid-span
	buf := make([]byte, memberUnit)
	for _, op := range []struct {
		name string
		do   func([]byte, int64) (int, error)
	}{{"read", s.ReadAt}, {"write", s.WriteAt}} {
		_, err := op.do(buf, off)
		if !errors.Is(err, core.ErrTooManyFailures) || !errors.Is(err, core.ErrDeviceFailed) {
			t.Fatalf("%s with member 0 absent and member 1 failing = %v; want %v wrapping %v",
				op.name, err, core.ErrTooManyFailures, core.ErrDeviceFailed)
		}
	}
	if s.Absent(1) {
		t.Fatal("a second member was absorbed by a one-parity store")
	}
}
