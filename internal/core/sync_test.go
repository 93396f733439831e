package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// openSync opens a store over fresh devices (5 for m=1, 6 for m=2) with
// the scrubber off, so marks stand until the test drains them.
func openSync(t *testing.T, mode Mode, disks int) *Store {
	t.Helper()
	s, err := Open(newDevs(disks), &MemNVRAM{}, Options{Mode: mode, StripeUnit: testUnit, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// exactOrLoss reads every data unit of the store and fails the test on
// any that comes back neither as want's bytes nor as ErrDataLoss. It
// returns how many read exact.
func exactOrLoss(t *testing.T, s *Store, want []byte) int {
	t.Helper()
	unit := s.geo.StripeUnit
	got := make([]byte, unit)
	exact := 0
	for off := int64(0); off < s.Capacity(); off += unit {
		_, err := s.ReadAt(got, off)
		switch {
		case errors.Is(err, ErrDataLoss):
		case err != nil:
			t.Fatalf("unit at %d: %v", off, err)
		case !bytes.Equal(got, want[off:off+unit]):
			t.Fatalf("unit at %d (stripe %d): wrong bytes, no error", off, off/s.geo.StripeDataBytes())
		default:
			exact++
		}
	}
	return exact
}

// Each sync count of an m=1 and an m=2 store: a partial write leaves its
// stripe marked, with its first n parities fresh, exactly when the count
// defers a parity (n < m).
func TestSetSync(t *testing.T) {
	for _, cfg := range []struct {
		mode  Mode
		disks int
	}{{Raid5, 5}, {Afraid6, 6}} {
		s := openSync(t, cfg.mode, cfg.disks)
		m := s.geo.Level.ParityUnits()
		sdb := s.geo.StripeDataBytes()
		for n := 0; n <= m; n++ {
			if err := s.SetSync(int64(n)*sdb, sdb, n); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WriteAt(pattern(100, byte(n)), int64(n)*sdb+7); err != nil {
				t.Fatal(err)
			}
			if dirty, fresh := s.eng.IsMarked(int64(n)), s.FreshParities(int64(n)); dirty != (n < m) || fresh != n {
				t.Fatalf("m=%d n=%d: dirty=%v with %d fresh parities", m, n, dirty, fresh)
			}
		}
		if got := s.DirtyStripes(); got != int64(m) {
			t.Fatalf("m=%d: %d dirty stripes, want one per n < m", m, got)
		}
		if err := s.SetSync(1, sdb, 0); err == nil {
			t.Fatalf("m=%d: unaligned sync range accepted", m)
		}
		if err := s.SetSync(0, sdb, m+1); err == nil {
			t.Fatalf("m=%d: sync count %d accepted", m, m+1)
		}
		s.Close()
	}
}

// SetSync takes each stripe's lock, so counts may change under writers
// and a running scrubber: every write reads back, and a drain leaves the
// array consistent.
func TestSetSyncUnderWriters(t *testing.T) {
	s, err := Open(newDevs(6), &MemNVRAM{}, Options{Mode: Afraid6, StripeUnit: testUnit, ScrubIdle: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers = 3
	sdb, stripes := s.geo.StripeDataBytes(), s.geo.Stripes()
	want := make([]byte, s.Capacity())
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) { // writer w owns the stripes w, w+writers, ...
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st := int64(w + writers*(i%int(stripes/writers)))
				off := st*sdb + int64(i*37)%(sdb-300)
				copy(want[off:off+300], pattern(300, byte(i+w)))
				if _, err := s.WriteAt(want[off:off+300], off); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if err := s.SetSync(int64(i)%stripes*sdb, sdb, i%3); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	assertParityClean(t, s)
	got := make([]byte, len(want))
	if _, err := s.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back after concurrent writes and count changes: %v", err)
	}
}

// A stripe marked when its sync count changes keeps its mark, and from
// then on the mark vouches for no parity: raising the count over a stale
// parity must not make it fresh, not even once a write at the new count
// has folded its delta into it. A failure there reads as loss, never as
// bytes solved through the stale parity.
func TestSyncChangeOnMarkedStripe(t *testing.T) {
	for _, cfg := range []struct {
		mode  Mode
		disks int
	}{{Afraid, 5}, {Afraid6, 6}} {
		t.Run(cfg.mode.String(), func(t *testing.T) {
			s := openSync(t, cfg.mode, cfg.disks)
			defer s.Close()
			m := s.geo.Level.ParityUnits()
			sdb, unit := s.geo.StripeDataBytes(), s.geo.StripeUnit
			want := pattern(int(s.Capacity()), 1)
			if _, err := s.WriteAt(want, 0); err != nil {
				t.Fatal(err)
			}
			if err := s.SetSync(0, sdb, 0); err != nil {
				t.Fatal(err)
			}
			rewrite := func(off, n int64, seed byte) {
				copy(want[off:off+n], pattern(int(n), seed))
				if _, err := s.WriteAt(want[off:off+n], off); err != nil {
					t.Fatal(err)
				}
			}
			rewrite(100, 500, 2) // every parity of stripe 0 goes stale behind its mark
			if err := s.SetSync(0, sdb, m); err != nil {
				t.Fatal(err)
			}
			if f := s.FreshParities(0); f != 0 {
				t.Fatalf("raised to n=%d over stale parity: %d fresh parities, want 0", m, f)
			}
			rewrite(unit+10, 300, 3) // a fully synchronous write onto the stale parity
			if f, d := s.FreshParities(0), s.DirtyStripes(); f != 0 || d != 1 {
				t.Fatalf("after a write at n=%d: %d fresh parities, %d dirty stripes; want 0 and 1", m, f, d)
			}
			if err := s.FailDisk(s.geo.DataDisk(0, 0)); err != nil {
				t.Fatal(err)
			}
			exactOrLoss(t, s, want)
		})
	}
}

// Sync counts are not persisted: a store reopens with its Mode's count
// on every stripe, and whatever the counts were — n = 0, 1, 2 by stripe
// on an m=2 store — no mark found at Open vouches for a parity the
// stripe's old count left stale, after a clean Close as after a crash.
func TestSyncCountsAcrossReopen(t *testing.T) {
	for _, clean := range []bool{true, false} {
		t.Run(fmt.Sprintf("clean=%v", clean), func(t *testing.T) {
			devs, nv := newDevs(6), &MemNVRAM{}
			opts := Options{Mode: Afraid6, StripeUnit: testUnit, DisableScrubber: true}
			s, err := Open(devs, nv, opts)
			if err != nil {
				t.Fatal(err)
			}
			sdb, unit := s.geo.StripeDataBytes(), s.geo.StripeUnit
			want := pattern(int(s.Capacity()), 5)
			if _, err := s.WriteAt(want, 0); err != nil {
				t.Fatal(err)
			}
			for st := int64(0); st < s.geo.Stripes(); st++ {
				if err := s.SetSync(st*sdb, sdb, int(st%3)); err != nil {
					t.Fatal(err)
				}
				off := st*sdb + unit/2 // half of data unit 0, half of unit 1
				copy(want[off:off+unit], pattern(int(unit), byte(st)))
				if _, err := s.WriteAt(want[off:off+unit], off); err != nil {
					t.Fatal(err)
				}
			}
			if clean {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			} // else the store is abandoned where it stands: a crash
			if s, err = Open(devs, nv, opts); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.FailDisk(1); err != nil {
				t.Fatal(err)
			}
			// The n=2 stripes were left clean, so at least their units read exact.
			if exact := exactOrLoss(t, s, want); exact < int(s.geo.Stripes()/3)*s.geo.DataDisks() {
				t.Fatalf("only %d units read exact", exact)
			}
		})
	}
}

// A write decides whether it verifies old contents before it marks by its
// stripe's sync count, not the store's: on a Raid5 store with an n = 0
// range, a partial multi-stripe write over a flipped unit there is left
// to preflight before its mark, so the flip is repaired from the parity
// that was still fresh, not reported as loss under the write's own mark.
func TestPreflightFollowsStripeSync(t *testing.T) {
	s, devs := openCsum(t, Options{Mode: Raid5, DisableScrubber: true})
	defer s.Close()
	sdb, unit := s.geo.StripeDataBytes(), s.geo.StripeUnit
	want := pattern(int(4*sdb), 7)
	if _, err := s.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SetSync(0, 4*sdb, 0); err != nil {
		t.Fatal(err)
	}
	flipByte(t, devs[s.geo.DataDisk(1, 0)], s.geo.DiskOffset(1)+unit-10)
	// Half of stripe 0's last unit and half of stripe 1's first, where the
	// flip sits under the old bytes the write keeps.
	off := sdb - unit/2
	copy(want[off:off+unit], pattern(int(unit), 8))
	if _, err := s.WriteAt(want[off:off+unit], off); err != nil {
		t.Fatalf("write over the flip: %v", err)
	}
	if st := s.Stats(); st.ChecksumRepaired == 0 || st.ChecksumLost != 0 {
		t.Fatalf("flip under an n=0 span: %d repaired, %d lost; want it repaired", st.ChecksumRepaired, st.ChecksumLost)
	}
	got := make([]byte, len(want))
	if _, err := s.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back: %v", err)
	}
}
