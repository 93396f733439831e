package core

import (
	"fmt"
	"testing"
	"time"

	"afraid/internal/testutil"
)

// TestIOPathAllocs pins the foreground I/O path's allocation behavior:
// after warm-up, full-span reads and writes — with and without
// checksums, the writes deferring parity (AFRAID) or not (RAID 5, RAID
// 6) — run without heap allocation, and so do full-span reads
// reconstructed around one failed disk (AFRAID, RAID 6) or two (RAID 6).
// The pooled pieces this guards: span slices (SplitAppend + spanPool),
// checksum slots and unit scratch (bufpool), the run lists a member's I/O
// takes — on the stack for a run of one, the image's own for a fan-out,
// pooled for a vectored write (vecs) — and for the degraded rows the
// stripe arena and the failed-set value the erasure solve works from. A regression in any of them shows up here as a
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

// TestReadCachePathAllocs pins the read cache's share of the same
// guarantee: over members slow enough for it to engage, reads served from
// memory, writes that refresh cached units, and misses that admit units and
// evict others run without heap allocation — the cache's buffers and both
// LRUs are allocated at Open.
func TestReadCachePathAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	probes := make([]*probeDev, 5)
	devs := make([]BlockDevice, len(probes))
	for i := range probes {
		probes[i] = &probeDev{BlockDevice: NewMemDevice(64 * runUnit), service: 20 * time.Microsecond}
		devs[i] = probes[i]
	}
	s, err := Open(devs, &MemNVRAM{}, Options{Mode: Afraid, StripeUnit: runUnit, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, runUnit)
	var unit int64
	op := func() {
		// Unit 0 is written and read back from memory; a walk over twice the
		// cache's units touches each twice in a row, admitting and evicting.
		for _, do := range []func([]byte, int64) (int, error){s.WriteAt, s.ReadAt, s.ReadAt} {
			if _, err := do(buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		off := (1 + unit%64) * runUnit
		for _, do := range []func([]byte, int64) (int, error){s.WriteAt, s.ReadAt} {
			if _, err := do(buf[:runUnit/2], off); err != nil {
				t.Fatal(err)
			}
		}
		unit++
	}
	for i := 0; i < 200; i++ { // engage, and warm the pools
		op()
	}
	if allocs := testing.AllocsPerRun(100, op); allocs >= 1 {
		t.Fatalf("read cache path allocates %.1f objects per round", allocs)
	}
	if st := s.Stats(); st.ReadCacheHits == 0 || st.ReadCacheMisses == 0 {
		t.Fatalf("%d hits, %d misses: the cache did not engage", st.ReadCacheHits, st.ReadCacheMisses)
	}
}
