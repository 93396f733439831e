package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// A read of whole, consecutive stripes is one read run (readRun): one read
// per member, the units landing in the caller's buffer, missing ones solved
// in memory. These tests pin what a run keeps of the span loop's
// guarantees: corruption is repaired, a stripe is solved only from fresh
// parity, and a member under repair leaves the read to its spans.

// TestReadRunRepairsFlippedUnit: a bit flipped in one member's unit in the
// middle of a checksummed three-stripe read fails the run, whose spans are
// then served one by one: the flipped unit is repaired once from parity,
// the read returns the written bytes, and nothing is lost.
func TestReadRunRepairsFlippedUnit(t *testing.T) {
	s, probes := openRuns(t, 4, Options{Mode: Afraid, Checksums: true})
	geo := s.Geometry()
	data := pattern(int(3*geo.StripeDataBytes()), 6)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	d := geo.DataDisk(1, 1)
	mem := probes[d].BlockDevice.(*MemDevice)
	var b [1]byte
	off := geo.DiskOffset(1) + 100
	mem.ReadAt(b[:], off)
	b[0] ^= 0x10
	mem.WriteAt(b[:], off)

	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatalf("read over the flipped unit: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned other bytes than were written")
	}
	if st := s.Stats(); st.ChecksumDetected != 1 || st.ChecksumRepaired != 1 || st.ChecksumLost != 0 {
		t.Fatalf("detected/repaired/lost = %d/%d/%d, want 1/1/0", st.ChecksumDetected, st.ChecksumRepaired, st.ChecksumLost)
	}
	if q := s.QuarantinedStripes(); len(q) != 0 {
		t.Fatalf("quarantined stripes %v", q)
	}
	unit := make([]byte, geo.StripeUnit)
	mem.ReadAt(unit, geo.DiskOffset(1))
	if want := data[geo.StripeDataBytes()+geo.StripeUnit:][:geo.StripeUnit]; !bytes.Equal(unit, want) {
		t.Fatal("the flipped unit was not rewritten on its member")
	}
	assertParityClean(t, s)
}

// TestDegradedReadRun: after FailDisk an aligned 8-stripe read is one run
// (one device_read entry) that reads each survivor's unit of every stripe
// once — its parity only where the failed member holds data — and the
// failed member's not at all, returns the written bytes, and counts one
// degraded read per stripe it solved. With checksums each survivor reads
// its run's slots once more.
func TestDegradedReadRun(t *testing.T) {
	const stripes, failed = 8, 2
	for _, checksums := range []bool{false, true} {
		t.Run(fmt.Sprintf("checksums=%v", checksums), func(t *testing.T) {
			s, probes := openRuns(t, 5, Options{Mode: Afraid, Checksums: checksums})
			geo := s.Geometry()
			data := pattern(int(stripes*geo.StripeDataBytes()), 8)
			if _, err := s.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := s.FailDisk(failed); err != nil {
				t.Fatal(err)
			}
			var reads0 []int64
			for _, p := range probes {
				reads0 = append(reads0, p.reads.Load())
			}
			entries0 := s.ob.devRead.Snapshot().Count
			got := make([]byte, len(data))
			if _, err := s.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("degraded read returned other bytes than were written")
			}
			if n := s.ob.devRead.Snapshot().Count - entries0; n != 1 {
				t.Errorf("%d device_read entries, want 1: one run", n)
			}
			var solved uint64
			for st := int64(0); st < stripes; st++ {
				if geo.ParityDisk(st) != failed {
					solved++
				}
			}
			if got := s.Stats().DegradedReads; got != solved {
				t.Errorf("%d degraded reads, want %d: one per stripe with data on the failed member", got, solved)
			}
			for i, p := range probes {
				want := int64(stripes)
				switch {
				case i == failed:
					want = 0
				case checksums:
					want++
				}
				if got := p.reads.Load() - reads0[i]; got != want {
					t.Errorf("member %d took %d reads, want %d", i, got, want)
				}
			}
		})
	}
}

// TestReadRunBeyondRedundancy: a read run over more missing members than
// the stripes' fresh parities cover fails as its spans do, returns nothing
// and never solves a stripe across them. On AFRAID a stripe a partial
// write left dirty is ErrDataLoss around one failed member, where that
// member holds data; on RAID 5 a second member fail-stopping under the run
// is beyond the redundancy — FailDisk refuses it — so every span fails
// with the member's fail-stop.
func TestReadRunBeyondRedundancy(t *testing.T) {
	for _, row := range []struct {
		name string
		mode Mode
		fail func(s *Store, probes []*probeDev)
		want error
	}{
		{"afraid, dirty stripes", Afraid, func(s *Store, _ []*probeDev) { s.FailDisk(1) }, ErrDataLoss},
		{"raid5, two failed members", Raid5, func(s *Store, probes []*probeDev) {
			s.FailDisk(1)
			probes[2].BlockDevice.(*MemDevice).Fail()
		}, ErrDeviceFailed},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, probes := openRuns(t, 4, Options{Mode: row.mode})
			geo := s.Geometry()
			sdb := geo.StripeDataBytes()
			if _, err := s.WriteAt(pattern(int(3*sdb), 2), 0); err != nil {
				t.Fatal(err)
			}
			for st := int64(0); st < 3; st++ { // a partial write marks an AFRAID stripe
				if _, err := s.WriteAt(pattern(100, 5), st*sdb); err != nil {
					t.Fatal(err)
				}
			}
			row.fail(s, probes)
			got := make([]byte, 3*sdb)
			n, err := s.ReadAt(got, 0)
			if n != 0 || !errors.Is(err, row.want) {
				t.Fatalf("read run: %d bytes, %v; want 0 and %v", n, err, row.want)
			}
			for st := int64(0); st < 3; st++ {
				want := row.want
				if row.mode == Afraid && geo.ParityDisk(st) == 1 {
					want = nil // the failed member holds only the stripe's parity
				}
				if _, err := s.ReadAt(got[:sdb], st*sdb); !errors.Is(err, want) {
					t.Errorf("stripe %d alone: %v, want %v", st, err, want)
				}
			}
			if dead := s.DeadDisks(); len(dead) != 1 || dead[0] != 1 {
				t.Errorf("DeadDisks = %v, want [1]", dead)
			}
		})
	}
}

// TestReadRunsDoNotFormUnderRepair: while a member is under repair its
// units are stale on the stripes the sweep has not reached, so a read is
// served span by span, each solving around the stale unit. The sweep is
// frozen inside stripe 60 of a RAID 5 store; a read of stripes 66–75, none
// of them swept, must return the written bytes — as one run it would read
// the replacement's blank units as data — in ten device_read entries, and
// without waiting for the sweep.
func TestReadRunsDoNotFormUnderRepair(t *testing.T) {
	s, _ := openRuns(t, 3, Options{Mode: Raid5, workers: 1})
	data := pattern(int(s.Capacity()), 3)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	rep := newGatedDevice(1<<20, 61) // the sweep writes one unit per stripe
	repaired := make(chan error, 1)
	go func() {
		_, err := s.RepairDisk(1, rep)
		repaired <- err
	}()
	<-rep.reached
	sdb := s.Geometry().StripeDataBytes()
	lo, hi := 66*sdb, 76*sdb
	entries0 := s.ob.devRead.Snapshot().Count
	read := make(chan error, 1)
	got := make([]byte, hi-lo)
	go func() {
		_, err := s.ReadAt(got, lo)
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read of unswept stripes waited for the sweep")
	}
	entries := s.ob.devRead.Snapshot().Count - entries0
	close(rep.gate)
	if err := <-repaired; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[lo:hi]) {
		t.Fatal("read across stale stripes returned other bytes than were written")
	}
	if entries != 10 {
		t.Errorf("%d device_read entries, want 10: one per span", entries)
	}
}
