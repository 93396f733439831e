package core

import (
	"fmt"
	"testing"

	"afraid/internal/testutil"
)

// TestIOPathAllocs pins the foreground I/O path's allocation behavior:
// after warm-up, full-span reads and writes — with and without
// checksums, the writes deferring parity (AFRAID) or not (RAID 5, RAID
// 6) — run without heap allocation, and so do full-span reads
// reconstructed around one failed disk (AFRAID, RAID 6) or two (RAID 6).
// The pooled pieces this guards: span slices (SplitAppend + spanPool),
// checksum slot buffers (slotPool), unit scratch (bufpool), and for the
// degraded rows the stripe arena and the failed-set value the erasure
// solve works from. A regression in any of them shows up here as a
// nonzero allocs/op long before it shows up as GC pressure in a
// throughput benchmark.
func TestIOPathAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	for _, row := range []struct {
		mode Mode
		fail []int // disks failed after the warm-up writes; reads are then degraded
	}{
		{Raid0, nil},
		{Afraid, nil}, // the full-stripe write: marks once, encodes from the caller's buffer
		{Raid5, nil},
		{Raid6, nil},
		{Afraid, []int{1}},
		{Raid6, []int{1}},
		{Raid6, []int{1, 4}},
	} {
		for _, checksums := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/failed=%d/checksums=%v", row.mode, len(row.fail), checksums), func(t *testing.T) {
				open := openTest
				if row.mode == Raid6 {
					open = openTest6
				}
				s, _ := open(t, Options{Mode: row.mode, DisableScrubber: true, Checksums: checksums})
				defer s.Close()
				span := s.Geometry().StripeDataBytes()
				buf := make([]byte, span)
				for i := 0; i < 16; i++ { // warm the pools
					if _, err := s.WriteAt(buf, 0); err != nil {
						t.Fatal(err)
					}
					if _, err := s.ReadAt(buf, 0); err != nil {
						t.Fatal(err)
					}
				}
				var writes float64
				if row.fail == nil {
					writes = testing.AllocsPerRun(100, func() {
						if _, err := s.WriteAt(buf, 0); err != nil {
							t.Fatal(err)
						}
					})
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				for _, d := range row.fail {
					if err := s.FailDisk(d); err != nil {
						t.Fatal(err)
					}
				}
				read := func() {
					if _, err := s.ReadAt(buf, 0); err != nil {
						t.Fatal(err)
					}
				}
				read() // the first degraded read sizes its stripe arena
				reads := testing.AllocsPerRun(100, read)
				if got := s.Stats().DegradedReads; (got > 0) != (row.fail != nil) {
					t.Fatalf("DegradedReads = %d with failed disks %v", got, row.fail)
				}
				if writes >= 1 || reads >= 1 {
					t.Fatalf("steady-state I/O allocates (write %.1f, read %.1f allocs/op); pooled buffers regressed", writes, reads)
				}
			})
		}
	}
}
