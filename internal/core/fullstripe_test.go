package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/nvram"
	"afraid/internal/testutil"
)

// probeDev counts a member's device calls, can charge each one a service
// time, and can hold its first write at a gate.
type probeDev struct {
	BlockDevice
	reads, writes atomic.Int64
	service       time.Duration

	mu      sync.Mutex
	gate    chan struct{} // armed: the next write waits here
	reached chan struct{}
}

func (d *probeDev) ReadAt(p []byte, off int64) (int, error) {
	d.reads.Add(1)
	time.Sleep(d.service)
	return d.BlockDevice.ReadAt(p, off)
}

func (d *probeDev) WriteAt(p []byte, off int64) (int, error) {
	d.writes.Add(1)
	d.mu.Lock()
	gate, reached := d.gate, d.reached
	d.gate = nil
	d.mu.Unlock()
	if gate != nil {
		close(reached)
		<-gate
	}
	time.Sleep(d.service)
	return d.BlockDevice.WriteAt(p, off)
}

// arm makes the next write wait; it returns when-reached and release.
func (d *probeDev) arm() (reached <-chan struct{}, release func()) {
	gate, hit := make(chan struct{}), make(chan struct{})
	d.mu.Lock()
	d.gate, d.reached = gate, hit
	d.mu.Unlock()
	return hit, func() { close(gate) }
}

func openProbed(t *testing.T, nv NVRAM, opts Options) (*Store, []*probeDev) {
	t.Helper()
	opts.StripeUnit = testUnit
	opts.DisableScrubber = true
	probes := make([]*probeDev, 5)
	devs := make([]BlockDevice, len(probes))
	for i := range probes {
		probes[i] = &probeDev{BlockDevice: NewMemDevice(testDisk)}
		devs[i] = probes[i]
	}
	s, err := Open(devs, nv, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, probes
}

func deviceOps(probes []*probeDev) (reads, writes int64) {
	for _, d := range probes {
		reads += d.reads.Load()
		writes += d.writes.Load()
	}
	return reads, writes
}

func assertParityClean(t *testing.T, s *Store) {
	t.Helper()
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("inconsistent stripes %v", bad)
	}
}

// A full-stripe write moves each of the stripe's k+m units to its disk
// once and reads nothing, in every organisation; it leaves the stripe
// redundant, and unmarked even if it was dirty before.
func TestFullStripeWriteDeviceOps(t *testing.T) {
	for _, row := range []struct {
		mode Mode
		both bool
	}{{Raid5, false}, {Raid6, false}, {Afraid, false}, {Afraid6, false}, {Afraid6, true}} {
		t.Run(fmt.Sprintf("%v/both=%v", row.mode, row.both), func(t *testing.T) {
			s, probes := openProbed(t, &MemNVRAM{}, Options{Mode: row.mode})
			if row.both {
				if err := s.SetSync(0, s.Capacity(), 0); err != nil {
					t.Fatal(err)
				}
			}
			sdb := s.geo.StripeDataBytes()
			// A partial write first: the stripe is dirty where the mode defers.
			if _, err := s.WriteAt(pattern(100, 1), 3*sdb+5); err != nil {
				t.Fatal(err)
			}
			if deferring := row.mode == Afraid || row.mode == Afraid6; (s.DirtyStripes() == 1) != deferring {
				t.Fatalf("%d dirty stripes after a partial write", s.DirtyStripes())
			}
			r0, w0 := deviceOps(probes)
			want := pattern(int(2*sdb), 7)
			if _, err := s.WriteAt(want, 3*sdb); err != nil {
				t.Fatal(err)
			}
			r1, w1 := deviceOps(probes)
			if r1 != r0 || w1-w0 != 2*int64(len(probes)) {
				t.Fatalf("two full stripes cost %d reads and %d writes, want 0 and %d", r1-r0, w1-w0, 2*len(probes))
			}
			if got := s.Stats().FullStripeWrites; got != 2 {
				t.Fatalf("full_stripe_writes = %d, want 2", got)
			}
			if n := s.DirtyStripes(); n != 0 {
				t.Fatalf("%d dirty stripes after full-stripe writes, one onto a dirty stripe", n)
			}
			assertParityClean(t, s)
			got := make([]byte, len(want))
			if _, err := s.ReadAt(got, 3*sdb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("read back differs")
			}
		})
	}
}

// The k+m unit writes of a full stripe go to distinct disks and overlap:
// the write costs about one device service time, not k+m of them. So do
// the k unit reads of a whole-stripe read.
func TestFullStripeWriteOverlapsItsUnits(t *testing.T) {
	const service = 20 * time.Millisecond
	for _, mode := range []Mode{Afraid, Raid5} {
		s, probes := openProbed(t, &MemNVRAM{}, Options{Mode: mode})
		for _, d := range probes {
			d.service = service
		}
		buf := pattern(int(s.geo.StripeDataBytes()), 3)
		for name, op := range map[string]func([]byte, int64) (int, error){"write": s.WriteAt, "read": s.ReadAt} {
			// Any op can meet a processor stolen for a moment: the best of a
			// few is what the devices allow.
			best := time.Hour
			for try := 0; try < 4 && best >= 2*service; try++ {
				t0 := time.Now()
				if _, err := op(buf, 0); err != nil {
					t.Fatal(err)
				}
				best = min(best, time.Since(t0))
			}
			if best >= 2*service {
				t.Fatalf("%v: full-stripe %s took %v on devices with a %v service time", mode, name, best, service)
			}
		}
	}
}

// Members that serve a unit faster than a hand-off to another goroutine costs
// are not handed anything: the goroutine that has the stripe's units
// moves them one after another. A store assumes disks until it has timed
// a unit, and goes by the last one it timed.
func TestFastMembersAreNotHandedOff(t *testing.T) {
	s, probes := openProbed(t, &MemNVRAM{}, Options{Mode: Raid5})
	sdb := s.geo.StripeDataBytes()
	if !s.arr.Overlaps() {
		t.Fatal("a fresh store does not assume its members are disks")
	}
	handedOff := func() bool { // by another goroutine than the caller's: the probes see the overlap
		for _, d := range probes {
			d.service = time.Millisecond
		}
		defer func() {
			for _, d := range probes {
				d.service = 0
			}
		}()
		t0 := time.Now()
		if _, err := s.WriteAt(pattern(int(sdb), 6), 0); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0) < time.Duration(len(probes))*time.Millisecond
	}
	// Under the race detector a memory device does not serve a unit in
	// under a hand-off's time, so the fast halves run without it.
	if !testutil.RaceEnabled {
		// Memory devices: the best of a few units timed is far under the bar
		// (one can meet a stolen processor).
		for try := 0; try < 20 && s.arr.Overlaps(); try++ {
			if _, err := s.WriteAt(pattern(int(sdb), 7), 0); err != nil {
				t.Fatal(err)
			}
		}
		if s.arr.Overlaps() {
			t.Fatal("memory devices still get hand-offs")
		}
		if handedOff() {
			t.Fatal("units were overlapped though the members had been serving them in under a hand-off's time")
		}
		// That write timed a millisecond unit: the members are disks again.
		if !s.arr.Overlaps() {
			t.Fatal("slow members are not handed off to after fast ones were seen")
		}
	}
	for try := 0; !handedOff(); try++ { // a worker may not be parked at the hand-off yet
		if try == 3 {
			t.Fatal("units of slow members were not overlapped")
		}
	}
	// A store that only reads notices its members turning slow as well.
	buf := make([]byte, sdb)
	if !testutil.RaceEnabled {
		for try := 0; try < 20 && s.arr.Overlaps(); try++ {
			if _, err := s.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		if s.arr.Overlaps() {
			t.Fatal("memory devices still get hand-offs")
		}
	}
	for _, d := range probes {
		d.service = time.Millisecond
	}
	if _, err := s.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !s.arr.Overlaps() {
		t.Fatal("a whole-stripe read of slow members, one unit after another, left the store thinking them fast")
	}
}

// A write that spans several stripes makes its marks durable in one
// NVRAM store; its full stripes end clean in memory without another, and
// Flush, ParityPoint and Close bring the image level with memory.
func TestOneNVRAMStorePerRequest(t *testing.T) {
	for _, checksums := range []bool{false, true} {
		dirtyAfterReopen := func(nv NVRAM) int64 {
			s, err := Open(newDevs(5), nv, Options{Mode: Afraid, StripeUnit: testUnit, DisableScrubber: true, Checksums: checksums})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			return s.DirtyStripes()
		}
		nv := &slowNVRAM{}
		s, _ := openProbed(t, nv, Options{Mode: Afraid, Checksums: checksums})
		sdb := s.geo.StripeDataBytes()
		base := nv.stores.Load()
		if _, err := s.WriteAt(pattern(int(8*sdb), 1), 8*sdb); err != nil {
			t.Fatal(err)
		}
		if got := nv.stores.Load() - base; got != 1 {
			t.Fatalf("checksums=%v: 8 aligned stripes cost %d NVRAM stores, want 1", checksums, got)
		}
		if n := s.DirtyStripes(); n != 0 {
			t.Fatalf("%d dirty stripes after an aligned write", n)
		}
		// The image still shows the marks: lazily cleared, conservatively.
		if n := dirtyAfterReopen(&nv.MemNVRAM); n != 8 {
			t.Fatalf("image shows %d marks before any store caught up, want 8", n)
		}
		for name, level := range map[string]func() error{
			"ParityPoint": func() error { return s.ParityPoint(0, sdb) },
			"Flush":       s.Flush,
		} {
			if err := level(); err != nil {
				t.Fatal(err)
			}
			if n := dirtyAfterReopen(&nv.MemNVRAM); n != 0 {
				t.Fatalf("%s left an image with %d marks, memory has 0", name, n)
			}
			before := nv.stores.Load()
			if err := level(); err != nil {
				t.Fatal(err)
			}
			if nv.stores.Load() != before {
				t.Fatalf("%s stored an image with nothing to say", name)
			}
			if _, err := s.WriteAt(pattern(int(sdb), 2), 0); err != nil {
				t.Fatal(err)
			}
		}
		// An unaligned request: a head and a tail that end inside a unit
		// around two full stripes. With checksums on those two spans verify
		// old contents before they mark, so they mark themselves.
		base = nv.stores.Load()
		if _, err := s.WriteAt(pattern(int(3*sdb), 3), 20*sdb+sdb/2+100); err != nil {
			t.Fatal(err)
		}
		want := uint64(1)
		if checksums {
			want = 3
		}
		if got := nv.stores.Load() - base; got != want {
			t.Fatalf("checksums=%v: unaligned 4-stripe write cost %d NVRAM stores, want %d", checksums, got, want)
		}
		if n := s.DirtyStripes(); n != 2 {
			t.Fatalf("%d dirty stripes, want the partial head and tail", n)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if n := dirtyAfterReopen(&nv.MemNVRAM); n != 2 {
			t.Fatalf("Close left an image with %d marks, memory had 2", n)
		}
	}
}

// The request-level mark is only a batching of stores: a drain that
// makes a stripe redundant between the request's mark and the span that
// writes it must not leave that write unmarked.
func TestSpanReassertsItsMark(t *testing.T) {
	s, probes := openProbed(t, &MemNVRAM{}, Options{Mode: Afraid})
	sdb := s.geo.StripeDataBytes()
	// The first span's first data write waits at the gate, the marks of
	// all three stripes already durable.
	reached, release := probes[s.geo.DataDisk(0, 2)].arm()
	done := make(chan error, 1)
	go func() {
		_, err := s.WriteAt(pattern(int(2*sdb+100), 9), sdb/2)
		done <- err
	}()
	<-reached
	if n := s.DirtyStripes(); n != 3 {
		t.Fatalf("%d stripes marked ahead of the write, want 3", n)
	}
	if err := s.ParityPoint(2*sdb, sdb); err != nil { // the drain wins stripe 2
		t.Fatal(err)
	}
	if isMarked(s.eng, 2) {
		t.Fatal("ParityPoint left stripe 2 marked")
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !isMarked(s.eng, 2) {
		t.Fatal("stripe 2 was written with its parity deferred and no mark")
	}
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range bad {
		if !isMarked(s.eng, st) {
			t.Fatalf("stripe %d is inconsistent and unmarked", st)
		}
	}
}

// gatedNVRAM can hold its stores at a gate.
type gatedNVRAM struct {
	MemNVRAM
	mu     sync.Mutex
	gate   chan struct{} // when non-nil, every Store waits for it to close
	stores atomic.Int64
}

func (n *gatedNVRAM) Store(img []byte) error {
	n.mu.Lock()
	gate := n.gate
	n.mu.Unlock()
	if gate != nil {
		<-gate
	}
	defer n.stores.Add(1)
	return n.MemNVRAM.Store(img)
}

// The request-level mark is set without the stripe locks, so another
// writer can find a stripe's bit set while the store that makes it
// durable is still in flight. It must wait for that store: acknowledged
// before it, its data would be on disk with stale parity and no mark.
func TestWriteWaitsForAStandingMarksStore(t *testing.T) {
	nv := &gatedNVRAM{}
	s, _ := openProbed(t, nv, Options{Mode: Afraid})
	sdb := s.geo.StripeDataBytes()
	gate := make(chan struct{})
	nv.mu.Lock()
	nv.gate = gate
	nv.mu.Unlock()
	base := nv.stores.Load()
	large, small := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := s.WriteAt(pattern(int(2*sdb), 4), 0)
		large <- err
	}()
	testutil.Eventually(t, "the request's marks to be set", func() bool { return s.DirtyStripes() == 2 })
	go func() {
		_, err := s.WriteAt(pattern(512, 5), sdb)
		small <- err
	}()
	select {
	case err := <-small:
		t.Fatalf("write to a stripe whose mark is not in NVRAM yet returned %v (%d stores completed)", err, nv.stores.Load()-base)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	for _, done := range []chan error{large, small} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range bad {
		if !isMarked(s.eng, st) {
			t.Fatalf("stripe %d is inconsistent and unmarked", st)
		}
	}
}

// A degraded read moves each survivor once: the solve's loads serve the
// healthy extents of the span too.
func TestDegradedReadMovesEachSurvivorOnce(t *testing.T) {
	for _, checksums := range []bool{false, true} {
		s, probes := openProbed(t, &MemNVRAM{}, Options{Mode: Raid5, Checksums: checksums})
		sdb := s.geo.StripeDataBytes()
		want := pattern(int(2*sdb), 5)
		if _, err := s.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.FailDisk(s.geo.DataDisk(0, 1)); err != nil {
			t.Fatal(err)
		}
		perUnit := int64(1)
		if checksums {
			perUnit = 2 // the unit and its checksum slot
		}
		got := make([]byte, sdb)
		r0, _ := deviceOps(probes)
		if _, err := s.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		r1, _ := deviceOps(probes)
		if units := (r1 - r0) / perUnit; units != int64(len(probes)-1) {
			t.Fatalf("checksums=%v: degraded full-stripe read moved %d units, want the %d survivors once each", checksums, units, len(probes)-1)
		}
		if !bytes.Equal(got, want[:sdb]) {
			t.Fatal("degraded read differs")
		}
		if n := s.Stats().DegradedReads; n != 1 {
			t.Fatalf("DegradedReads = %d after one reconstructed span", n)
		}
		// Ragged spans: a healthy extent inside the solved range is copied
		// out of the arena, one that reaches past it is read on its own.
		for _, r := range [][2]int64{{200, 2 * testUnit}, {testUnit + 100, 3*testUnit + 50}} {
			got = got[:r[1]-r[0]]
			if _, err := s.ReadAt(got, r[0]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[r[0]:r[1]]) {
				t.Fatalf("ragged degraded read [%d,%d) differs", r[0], r[1])
			}
		}
	}
}

// A degraded write that carries the whole data image reconstructs
// nothing: it reads no survivor, and it succeeds — healing the stripe —
// even where the old contents are beyond reconstruction.
func TestDegradedFullStripeWriteSkipsReconstruct(t *testing.T) {
	s, probes := openProbed(t, &MemNVRAM{}, Options{Mode: Afraid})
	sdb := s.geo.StripeDataBytes()
	if _, err := s.WriteAt(pattern(100, 1), 10); err != nil { // stripe 0 dirty
		t.Fatal(err)
	}
	dead := s.geo.DataDisk(0, 2)
	if err := s.FailDisk(dead); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteAt(pattern(100, 2), 2*s.geo.StripeUnit+20); err == nil {
		t.Fatal("a partial write merged with a unit lost under a dirty stripe")
	}
	r0, w0 := deviceOps(probes)
	want := pattern(int(sdb), 3)
	if _, err := s.WriteAt(want, 0); err != nil {
		t.Fatalf("full-stripe write onto a dirty stripe with a member failed: %v", err)
	}
	r1, w1 := deviceOps(probes)
	if r1 != r0 || w1-w0 != int64(len(probes)-1) {
		t.Fatalf("degraded full-stripe write cost %d reads and %d writes, want 0 and %d", r1-r0, w1-w0, len(probes)-1)
	}
	if n := s.DirtyStripes(); n != 0 {
		t.Fatalf("%d dirty stripes: the stored image did not heal the stripe", n)
	}
	got := make([]byte, sdb)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the dead unit does not reconstruct to what was written")
	}
}

// TestWriteBackDeviceOps pins what the one write-back moves: only the units
// whose bytes differ from what their members hold. A scrub of a dirty
// stripe reads its k data units and writes its m parities; a repair onto a
// blank replacement of a flushed array reads one solve's units and writes
// the replacement's unit, plus, on RAID 6, the parity the solve did not
// use; a one-extent degraded write around an absent data member writes the
// extent's unit and the m parities, not the survivors' unchanged data.
func TestWriteBackDeviceOps(t *testing.T) {
	for _, mode := range []Mode{Raid5, Raid6} {
		t.Run(mode.String(), func(t *testing.T) {
			s, probes := openProbed(t, &MemNVRAM{}, Options{Mode: mode})
			k, m := int64(s.geo.DataDisks()), int64(s.geo.Level.ParityUnits())
			sdb, stripes := s.geo.StripeDataBytes(), s.geo.Stripes()
			want := make([]byte, s.Capacity())
			for st := int64(0); st < stripes; st++ {
				copy(want[st*sdb:], pattern(int(sdb), byte(st)))
			}
			if _, err := s.WriteAt(want, 0); err != nil {
				t.Fatal(err)
			}
			ops := func(what string, wantReads, wantWrites int64, op func() error) {
				t.Helper()
				r0, w0 := deviceOps(probes)
				if err := op(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if r1, w1 := deviceOps(probes); r1-r0 != wantReads || w1-w0 != wantWrites {
					t.Fatalf("%s: %d reads and %d writes, want %d and %d", what, r1-r0, w1-w0, wantReads, wantWrites)
				}
			}

			const dirty = 5
			if err := s.SetSync(dirty*sdb, sdb, 0); err != nil {
				t.Fatal(err)
			}
			copy(want[dirty*sdb+7:], pattern(300, 1))
			if _, err := s.WriteAt(want[dirty*sdb+7:dirty*sdb+307], dirty*sdb+7); err != nil {
				t.Fatal(err)
			}
			ops("scrub of a dirty stripe", k, m, func() error { return s.ParityPoint(dirty*sdb, 1) })

			const victim = 2
			if err := s.FailDisk(victim); err != nil {
				t.Fatal(err)
			}
			rep := &probeDev{BlockDevice: NewMemDevice(testDisk)}
			probes = append(probes, rep)
			ops("repair onto a blank replacement", stripes*k, stripes*m, func() error {
				report, err := s.RepairDisk(victim, rep)
				if err == nil && len(report.Lost) != 0 {
					err = fmt.Errorf("lost %+v on a flushed array", report.Lost)
				}
				return err
			})
			if n := rep.writes.Load(); n != stripes {
				t.Fatalf("replacement written %d times, want once per stripe (%d)", n, stripes)
			}

			const degraded = 9
			absent := s.geo.DataDisk(degraded, 0)
			if err := s.FailDisk(absent); err != nil {
				t.Fatal(err)
			}
			at := degraded*sdb + 2*testUnit + 11
			copy(want[at:], pattern(200, 2))
			ops("one-extent degraded write", k, 1+m, func() error {
				_, err := s.WriteAt(want[at:at+200], at)
				return err
			})
			got := make([]byte, len(want))
			if _, err := s.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("read back around the absent member: err %v", err)
			}
		})
	}
}

// isMarked reports whether the engine holds unit unredundant.
func isMarked(e *nvram.Engine, unit int64) bool {
	marked, _, _ := e.State(unit)
	return marked
}
