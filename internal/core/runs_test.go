package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A store whose layout keeps no parity and no checksum slots folds a
// request's stripe spans into its members' contiguous runs (foldRun).
// These tests pin which stores do, what a run costs, and what it keeps of
// the span loop's guarantees.

const runUnit = 8 << 10 // the default stripe unit: what a cluster node runs with

func openRuns(t testing.TB, members int, opts Options) (*Store, []*probeDev) {
	t.Helper()
	opts.StripeUnit = runUnit
	opts.DisableScrubber = true
	probes := make([]*probeDev, members)
	devs := make([]BlockDevice, members)
	for i := range probes {
		probes[i] = &probeDev{BlockDevice: NewMemDevice(1 << 20)}
		devs[i] = probes[i]
	}
	s, err := Open(devs, &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, probes
}

// TestRunsDeviceCalls counts device calls and device_read/device_write
// histogram entries for one 64 KiB request, beside the same range issued
// stripe by stripe, which is what every store did before runs. The
// one-member parity-less store folds — one call, one entry, either way; a
// write of whole stripes with parity is one full-stripe run — one entry,
// and over members without a vectored write the same calls; a read's whole
// stripes are one read run — one entry, the same unit reads, and with
// checksums one slot read per member, not one per unit. A span a run does
// not take (raid0x3's last, two units of three) is one entry more. Every
// request that forms no run must cost exactly its stripe-by-stripe cost.
func TestRunsDeviceCalls(t *testing.T) {
	const size = 64 << 10
	type cost struct{ calls, entries int64 }
	for _, row := range []struct {
		name            string
		members         int
		opts            Options
		folds, writeRun bool
		write, read     cost
	}{
		{"raid0x1", 1, Options{Mode: Raid0}, true, false, cost{1, 1}, cost{1, 1}},
		{"raid0x1+checksums", 1, Options{Mode: Raid0, Checksums: true}, false, false, cost{16, 8}, cost{9, 1}},
		{"raid0x3", 3, Options{Mode: Raid0}, false, false, cost{8, 3}, cost{8, 2}},
		{"afraidx3", 3, Options{Mode: Afraid}, false, true, cost{12, 1}, cost{8, 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, probes := openRuns(t, row.members, row.opts)
			buf := pattern(size, 3)
			// measure runs fn and reports the device calls and histogram
			// entries it made.
			measure := func(fn func()) cost {
				r0, w0 := deviceOps(probes)
				e0 := s.ob.devRead.Snapshot().Count + s.ob.devWrite.Snapshot().Count
				fn()
				r1, w1 := deviceOps(probes)
				return cost{r1 + w1 - r0 - w0, int64(s.ob.devRead.Snapshot().Count + s.ob.devWrite.Snapshot().Count - e0)}
			}
			stripeBytes := s.Geometry().StripeDataBytes()
			for _, op := range []struct {
				name string
				do   func(p []byte, off int64) (int, error)
				want cost
				run  bool
			}{{"write", s.WriteAt, row.write, row.writeRun}, {"read", s.ReadAt, row.read, true}} {
				byStripe := measure(func() {
					for off := int64(0); off < size; off += stripeBytes {
						if _, err := op.do(buf[off:min(off+stripeBytes, size)], off); err != nil {
							t.Fatal(err)
						}
					}
				})
				whole := measure(func() {
					if _, err := op.do(buf, 0); err != nil {
						t.Fatal(err)
					}
				})
				if row.folds && byStripe.calls != size/runUnit {
					t.Fatalf("%s stripe by stripe made %d device calls, want %d", op.name, byStripe.calls, size/runUnit)
				}
				if !row.folds && !op.run && whole != byStripe {
					t.Errorf("64 KiB %s forms no run but costs %d device calls and %d histogram entries, stripe by stripe %d and %d",
						op.name, whole.calls, whole.entries, byStripe.calls, byStripe.entries)
				}
				if whole != op.want {
					t.Errorf("64 KiB %s: %d device calls and %d histogram entries, want %d and %d (stripe by stripe: %d and %d)",
						op.name, whole.calls, whole.entries, op.want.calls, op.want.entries, byStripe.calls, byStripe.entries)
				}
			}
			if st := s.Stats(); st.Reads != uint64((size+stripeBytes-1)/stripeBytes)+1 || st.Writes != st.Reads {
				t.Errorf("Stats count %d reads, %d writes; want one per request", st.Reads, st.Writes)
			}
		})
	}
}

// TestRunsMatchByteShadow drives unaligned requests — the 100 KiB ones are
// runs of thirteen or fourteen stripes with ragged ends — against a byte
// shadow, and checks what reached the member too: on a one-member RAID 0
// store the device is the client address space.
func TestRunsMatchByteShadow(t *testing.T) {
	for _, members := range []int{1, 3} {
		t.Run(fmt.Sprintf("raid0x%d", members), func(t *testing.T) {
			s, probes := openRuns(t, members, Options{Mode: Raid0})
			shadow := make([]byte, s.Capacity())
			rng := rand.New(rand.NewSource(20))
			for i := 0; i < 200; i++ {
				n := int64(100 << 10)
				if i%4 != 0 {
					n = 1 + rng.Int63n(3*runUnit)
				}
				off := rng.Int63n(s.Capacity() - n)
				if i%2 == 0 {
					p := pattern(int(n), byte(i))
					if _, err := s.WriteAt(p, off); err != nil {
						t.Fatal(err)
					}
					copy(shadow[off:], p)
					continue
				}
				got := make([]byte, n)
				if _, err := s.ReadAt(got, off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, shadow[off:off+n]) {
					t.Fatalf("op %d: read [%d,%d) differs from the shadow", i, off, off+n)
				}
			}
			if members == 1 {
				dev := make([]byte, len(shadow))
				if _, err := probes[0].BlockDevice.ReadAt(dev, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dev, shadow) {
					t.Fatal("member contents differ from the shadow")
				}
			}
		})
	}
}

// TestRunOverFailedMemberIsDataLoss: a run that touches a failed member is
// ErrDataLoss exactly as each of its spans was — whether the store already
// knew of the failure or the device reports it under the run — and never a
// panic from treating the run's extent as a range of one stripe unit.
func TestRunOverFailedMemberIsDataLoss(t *testing.T) {
	buf := make([]byte, 64<<10)
	for _, row := range []struct {
		name string
		fail func(s *Store, d *probeDev) error
	}{
		{"known", func(s *Store, _ *probeDev) error { return s.FailDisk(0) }},
		{"met under the run", func(_ *Store, d *probeDev) error { d.BlockDevice.(*MemDevice).Fail(); return nil }},
	} {
		for _, op := range []string{"read", "write"} {
			t.Run(row.name+"/"+op, func(t *testing.T) {
				s, probes := openRuns(t, 1, Options{Mode: Raid0})
				if _, err := s.WriteAt(buf, 0); err != nil {
					t.Fatal(err)
				}
				if err := row.fail(s, probes[0]); err != nil {
					t.Fatal(err)
				}
				do := s.ReadAt
				if op == "write" {
					do = s.WriteAt
				}
				// Mid-unit start, so the run is ragged at both ends.
				if _, err := do(buf[:60<<10], 1000); !errors.Is(err, ErrDataLoss) {
					t.Fatalf("%s over the failed member: %v, want ErrDataLoss", op, err)
				}
				if dead := s.DeadDisks(); len(dead) != 1 || dead[0] != 0 {
					t.Fatalf("DeadDisks = %v, want [0]", dead)
				}
			})
		}
	}
}

// swapDev is a member that reports every call made to it after it was
// retired: RepairDisk has installed its replacement, whose first device
// call retires it.
type swapDev struct {
	BlockDevice
	prev    atomic.Pointer[swapDev] // the member this one replaces
	retired atomic.Bool
	late    atomic.Int64
}

func (d *swapDev) call() {
	if p := d.prev.Swap(nil); p != nil {
		p.retired.Store(true)
	}
	if d.retired.Load() {
		d.late.Add(1)
	}
}

func (d *swapDev) ReadAt(p []byte, off int64) (int, error) {
	d.call()
	return d.BlockDevice.ReadAt(p, off)
}

func (d *swapDev) WriteAt(p []byte, off int64) (int, error) {
	d.call()
	return d.BlockDevice.WriteAt(p, off)
}

// TestRepairSwapDrainsRuns races 64 KiB requests with fail-and-repair
// cycles of a parity-less store's member. A request holds one stripe lock
// for as long as it has a device in hand — a run its first stripe's — so
// the all-locks barrier RepairDisk installs the replacement under drains
// it: no request reaches the old device once the replacement has seen a
// call, the sweep's or a request's, and (under -race) the install in the
// member slot is ordered against every device call. On the one-member
// store every request is one run while the member is up, and none folds
// while it is failed or under repair; on the two-member store none is, and
// the same must hold.
func TestRepairSwapDrainsRuns(t *testing.T) {
	for _, members := range []int{1, 2} {
		t.Run(fmt.Sprintf("raid0x%d", members), func(t *testing.T) {
			const devSize = 1 << 20
			target := members - 1
			devs := make([]BlockDevice, members)
			for i := range devs {
				devs[i] = NewMemDevice(devSize)
			}
			cur := &swapDev{BlockDevice: devs[target]}
			devs[target] = cur
			s, err := Open(devs, &MemNVRAM{}, Options{Mode: Raid0, DisableScrubber: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			var (
				wg   sync.WaitGroup
				stop atomic.Bool
				ok   atomic.Int64
			)
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					buf := make([]byte, 64<<10)
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; !stop.Load(); i++ {
						off := rng.Int63n(s.Capacity() - int64(len(buf)))
						do := s.ReadAt
						if i%2 == w%2 {
							do = s.WriteAt
						}
						switch _, err := do(buf, off); {
						case err == nil:
							ok.Add(1)
						case !errors.Is(err, ErrDataLoss): // the member is failed for part of each cycle
							t.Errorf("request at %d: %v", off, err)
							return
						}
					}
				}(w)
			}
			var retired []*swapDev
			for cycle := 0; cycle < 20; cycle++ {
				for n := ok.Load(); ok.Load() < n+3 && !t.Failed(); { // let requests reach the member
					time.Sleep(50 * time.Microsecond)
				}
				if err := s.FailDisk(target); err != nil {
					t.Fatal(err)
				}
				next := &swapDev{BlockDevice: NewMemDevice(devSize)}
				next.prev.Store(cur)
				if _, err := s.RepairDisk(target, next); err != nil {
					t.Fatal(err)
				}
				if !cur.retired.Load() {
					t.Fatalf("cycle %d: the repair sweep made no call to the replacement", cycle)
				}
				retired = append(retired, cur)
				cur = next
			}
			stop.Store(true)
			wg.Wait()
			for i, d := range retired {
				if n := d.late.Load(); n != 0 {
					t.Errorf("cycle %d: %d device calls reached the old member after its replacement was installed", i, n)
				}
			}
		})
	}
}

// TestRunsDoNotFoldUnderRepair: while a member is under repair its units
// are stale on some stripes only, so a request is served span by span. The
// sweep is frozen inside stripe 72 of a one-member store; a read of stripes
// 70–79 must wait for that stripe's lock, and would otherwise, as one run
// under stripe 70's lock, return the replacement's blank units as data.
func TestRunsDoNotFoldUnderRepair(t *testing.T) {
	s, _ := openRuns(t, 1, Options{Mode: Raid0, workers: 1})
	if err := s.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	rep := newGatedDevice(1<<20, 73) // the sweep writes one unit per stripe
	repaired := make(chan error, 1)
	go func() {
		_, err := s.RepairDisk(0, rep)
		repaired <- err
	}()
	<-rep.reached
	read := make(chan error, 1)
	go func() {
		_, err := s.ReadAt(make([]byte, 10*runUnit), 70*runUnit)
		read <- err
	}()
	select {
	case err := <-read:
		t.Fatalf("read across stale stripes returned (%v) while the sweep held stripe 72", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(rep.gate)
	if err := <-repaired; err != nil {
		t.Fatal(err)
	}
	if err := <-read; err != nil && !errors.Is(err, ErrDataLoss) {
		t.Fatal(err)
	}
}

// TestOverlappingRunsStayWholePerUnit: a run holds only its first stripe's
// lock, so two writers whose runs overlap are not serialized by the store
// past that stripe; what keeps each unit wholly one writer's is that a run
// is one device call, and the device call is the atom. Readers of the same
// range see the same.
func TestOverlappingRunsStayWholePerUnit(t *testing.T) {
	s, _ := openRuns(t, 1, Options{Mode: Raid0})
	const size = 64 << 10
	wholeUnits := func(p []byte, what string) {
		for u := 0; u < len(p); u += runUnit {
			unit := p[u : u+runUnit]
			if bytes.Count(unit, unit[:1]) != len(unit) {
				t.Errorf("%s: unit at %d mixes writers", what, u)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(0xA0 + w)}, size)
			got := make([]byte, size)
			off := int64(w) * (size / 2) // the second writer starts in the middle of the first's run
			for i := 0; i < 300 && !t.Failed(); i++ {
				if _, err := s.WriteAt(buf, off); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.ReadAt(got, off); err != nil {
					t.Error(err)
					return
				}
				wholeUnits(got, "racing read")
			}
		}(w)
	}
	wg.Wait()
	final := make([]byte, size+size/2)
	if _, err := s.ReadAt(final, 0); err != nil {
		t.Fatal(err)
	}
	wholeUnits(final, "final contents")
}

var benchSink int

// BenchmarkNodeStore is a cluster node's store alone: RAID 0 over one
// memory device with the default unit, moving the 64 KiB units a volume
// sends it. It is the row beside server's BenchmarkServerRead/Write: what
// of a node op is the store's.
func BenchmarkNodeStore(b *testing.B) {
	for _, op := range []string{"read", "write"} {
		b.Run(op, func(b *testing.B) {
			s, err := Open([]BlockDevice{NewMemDevice(64 << 20)}, &MemNVRAM{}, Options{Mode: Raid0})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			buf := make([]byte, 64<<10)
			do := s.ReadAt
			if op == "write" {
				do = s.WriteAt
			}
			units := s.Capacity() / int64(len(buf))
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := do(buf, int64(i)%units*int64(len(buf)))
				if err != nil {
					b.Fatal(err)
				}
				benchSink += n
			}
		})
	}
}

// countDev counts the writes a member takes: WriteAt calls, and as a
// vecCountDev WriteVecAtContext calls, which land on the backing as one
// write. A failVec member fail-stops on its first vectored write.
type countDev struct {
	*MemDevice
	failVec bool
	writes  atomic.Int64
}

func (d *countDev) WriteAt(p []byte, off int64) (int, error) {
	d.writes.Add(1)
	return d.MemDevice.WriteAt(p, off)
}

// vecCountDev is a countDev that takes a run's units in one call.
type vecCountDev struct{ *countDev }

func (d vecCountDev) WriteVecAtContext(_ context.Context, bufs [][]byte, off int64) (int, error) {
	d.writes.Add(1)
	if d.failVec {
		d.Fail()
		return 0, ErrDeviceFailed
	}
	return d.MemDevice.WriteAt(bytes.Join(bufs, nil), off)
}

func openCounted(t *testing.T, members int, opts Options, vec bool) (*Store, []*countDev) {
	t.Helper()
	counted := make([]*countDev, members)
	devs := make([]BlockDevice, members)
	for i := range devs {
		counted[i] = &countDev{MemDevice: NewMemDevice(512 << 10)}
		devs[i] = counted[i]
		if vec {
			devs[i] = vecCountDev{counted[i]}
		}
	}
	opts.StripeUnit, opts.DisableScrubber = runUnit, true
	s, err := Open(devs, &MemNVRAM{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, counted
}

// TestFullStripeRunDeviceCalls: an aligned 1 MiB write to a healthy
// five-member AFRAID store is one full-stripe run of 32 stripes. A member
// that takes a vector gets one write, and with checksums one more for the
// run's slots, which are consecutive in its trailer; any other member gets
// one write per unit, and the same slot write. Either way every member ends
// holding exactly what the same stripes written one request each leave
// there, every stripe counts as a full-stripe write, nothing stays marked
// and every parity checks.
func TestFullStripeRunDeviceCalls(t *testing.T) {
	const size = 1 << 20
	for _, checksums := range []bool{false, true} {
		for _, vec := range []bool{false, true} {
			t.Run(fmt.Sprintf("checksums=%v/vectored=%v", checksums, vec), func(t *testing.T) {
				opts := Options{Mode: Afraid, Checksums: checksums}
				s, counted := openCounted(t, 5, opts, vec)
				ref, refCounted := openCounted(t, 5, opts, vec)
				data := pattern(size, 9)
				sdb := s.Geometry().StripeDataBytes()
				for off := int64(0); off < size; off += sdb {
					if _, err := ref.WriteAt(data[off:off+sdb], off); err != nil {
						t.Fatal(err)
					}
				}
				full0 := s.Stats().FullStripeWrites
				var writes0 []int64 // Open's: the checksum trailer's format
				for _, d := range counted {
					writes0 = append(writes0, d.writes.Load())
				}
				if _, err := s.WriteAt(data, 0); err != nil {
					t.Fatal(err)
				}
				want := int64(1)
				if !vec {
					want = size / sdb
				}
				if checksums {
					want++
				}
				for i, d := range counted {
					if got := d.writes.Load() - writes0[i]; got != want {
						t.Errorf("member %d took %d writes, want %d", i, got, want)
					}
					got, ref := make([]byte, d.Size()), make([]byte, d.Size())
					d.MemDevice.ReadAt(got, 0)
					refCounted[i].MemDevice.ReadAt(ref, 0)
					if !bytes.Equal(got, ref) {
						t.Errorf("member %d holds other bytes than the stripe-by-stripe writes left", i)
					}
				}
				if got := s.Stats().FullStripeWrites - full0; got != uint64(size/sdb) {
					t.Errorf("full_stripe_writes moved by %d, want %d", got, size/sdb)
				}
				if n := s.DirtyStripes(); n != 0 {
					t.Errorf("%d stripes left marked", n)
				}
				assertParityClean(t, s)
			})
		}
	}
}

// TestFullStripeRunMemberFailStops: a member that fail-stops on the run's
// vectored write is absorbed, and the run's stripes are written again one
// by one around it — degraded, bar those it holds parity for, which defer:
// the write succeeds and reads back.
func TestFullStripeRunMemberFailStops(t *testing.T) {
	const size = 1 << 20
	s, counted := openCounted(t, 5, Options{Mode: Afraid}, true)
	counted[2].failVec = true
	data := pattern(size, 4)
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatalf("write over a member failing under its run: %v", err)
	}
	if dead := s.DeadDisks(); len(dead) != 1 || dead[0] != 2 {
		t.Fatalf("DeadDisks = %v, want [2]", dead)
	}
	var want uint64
	for st := int64(0); st < size/s.Geometry().StripeDataBytes(); st++ {
		if s.Geometry().ParityDisk(st) != 2 {
			want++
		}
	}
	if got := s.Stats().DegradedWrites; got != want {
		t.Errorf("%d degraded writes, want %d: one per stripe of the run with data on the failed member", got, want)
	}
	got := make([]byte, size)
	if _, err := s.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back around the failed member: %v", err)
	}
}

// lossDev is a member that reports the unit at lost as lost on every read
// that covers it, as a cluster node whose own array lost it does.
type lossDev struct {
	*MemDevice
	lost int64
}

func (d lossDev) ReadAt(p []byte, off int64) (int, error) {
	if off < d.lost+runUnit && off+int64(len(p)) > d.lost {
		return 0, fmt.Errorf("node: %w", ErrDataLoss)
	}
	return d.MemDevice.ReadAt(p, off)
}

// TestLossInsideRunIsCountedOnce: a member reporting one unit of a folded
// run lost does not say which, so the run is served again span by span,
// and the loss is the stripe's that holds the unit, detected once and
// reported — exactly as a read of that unit alone. A read run, which reads
// unit by unit, learns which, and leaves it to the same span.
func TestLossInsideRunIsCountedOnce(t *testing.T) {
	for _, row := range []struct {
		name    string
		members int
		off, n  int64
		stripes string
	}{
		{"run", 1, 0, 64 << 10, "stripe 3 "},
		{"alone", 1, 3 * runUnit, runUnit, "stripe 3 "},
		{"read run", 3, 0, 5 * 3 * runUnit, "stripe 3 "},
	} {
		t.Run(row.name, func(t *testing.T) {
			devs := []BlockDevice{lossDev{NewMemDevice(1 << 20), 3 * runUnit}}
			for len(devs) < row.members {
				devs = append(devs, NewMemDevice(1<<20))
			}
			s, err := Open(devs, &MemNVRAM{}, Options{Mode: Raid0, StripeUnit: runUnit, DisableScrubber: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			_, err = s.ReadAt(make([]byte, row.n), row.off)
			if !errors.Is(err, ErrDataLoss) || !strings.Contains(err.Error(), row.stripes) {
				t.Fatalf("read over the lost unit: %v, want ErrDataLoss naming %q", err, row.stripes)
			}
			if st := s.Stats(); st.ChecksumDetected != 1 || st.ChecksumRepaired != 0 || st.ChecksumLost != 1 {
				t.Fatalf("detected/repaired/lost = %d/%d/%d, want 1/0/1", st.ChecksumDetected, st.ChecksumRepaired, st.ChecksumLost)
			}
		})
	}
}

// TestRunLocksAgainstRepairAndOverlap races two writers whose full-stripe
// runs overlap — one's requests crossing the lock pool's wrap at stripe 64,
// so each is two runs — with whole-unit writes that leave Q to the
// scrubber, with a reader whose read runs cover both writers' stripes
// across the wrap, healthy or around the failed member, and with
// fail-and-repair cycles whose install takes every stripe lock. Runs take
// their locks in pool order, so nothing deadlocks; a run holds every stripe
// it writes or reads, so each unit the reader sees, and each unit at the
// end, is wholly one writer's (or still blank); and after Flush every
// parity checks.
func TestRunLocksAgainstRepairAndOverlap(t *testing.T) {
	const unit, devSize = 4 << 10, 128 * (4 << 10)
	devs := make([]BlockDevice, 6)
	for i := range devs {
		devs[i] = NewMemDevice(devSize)
	}
	s, err := Open(devs, &MemNVRAM{}, Options{Mode: Afraid6, StripeUnit: unit, ScrubIdle: time.Millisecond, DirtyThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sdb := s.Geometry().StripeDataBytes()
	ranges := [2][2]int64{{40, 72}, {56, 88}} // stripes [lo, hi) of each writer
	var (
		wg     sync.WaitGroup
		stop   atomic.Bool
		writes atomic.Int64
	)
	for w, r := range ranges {
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(0xA0 + w)}, int(hi-lo))
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() && !t.Failed() {
				if _, err := s.WriteAt(buf, lo); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				u := lo + rng.Int63n((hi-lo)/unit)*unit
				if _, err := s.WriteAt(buf[:unit], u); err != nil {
					t.Errorf("writer %d, unit at %d: %v", w, u, err)
					return
				}
				writes.Add(1)
			}
		}(w, r[0]*sdb, r[1]*sdb)
	}
	// owned reports whether the unit of the read [lo, hi) at u is wholly
	// one of the writers' that cover it, or still blank.
	owned := func(got []byte, lo, u int64) bool {
		at, b := lo+u, got[u]
		owner := b == 0 || b == 0xA0 && at < ranges[0][1]*sdb || b == 0xA1 && at >= ranges[1][0]*sdb
		return owner && bytes.Count(got[u:u+unit], got[u:u+1]) == unit
	}
	lo, hi := ranges[0][0]*sdb, ranges[1][1]*sdb
	wg.Add(1)
	go func() {
		defer wg.Done()
		got := make([]byte, hi-lo)
		for !stop.Load() && !t.Failed() {
			if _, err := s.ReadAt(got, lo); err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			for u := int64(0); u < hi-lo; u += unit {
				if !owned(got, lo, u) {
					t.Errorf("reader: unit at %d is not wholly one of its writers'", lo+u)
					return
				}
			}
		}
	}()
	for cycle := 0; cycle < 12 && !t.Failed(); cycle++ {
		for n := writes.Load(); writes.Load() < n+4 && !t.Failed(); {
			time.Sleep(50 * time.Microsecond)
		}
		d := cycle % len(devs)
		if err := s.FailDisk(d); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RepairDisk(d, NewMemDevice(devSize)); err != nil {
			t.Fatalf("cycle %d: repair of disk %d: %v", cycle, d, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	assertParityClean(t, s)
	got := make([]byte, hi-lo)
	if _, err := s.ReadAt(got, lo); err != nil {
		t.Fatal(err)
	}
	for u := int64(0); u < hi-lo; u += unit {
		if !owned(got, lo, u) || got[u] == 0 {
			t.Fatalf("unit at %d is not wholly one of its writers'", lo+u)
		}
	}
}
