package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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
// histogram entries for one 64 KiB request against the same range issued
// stripe by stripe, which is what every store did before runs. Only the
// one-member parity-less store may differ — one call, one entry — and every
// other row must match its stripe-by-stripe cost exactly.
func TestRunsDeviceCalls(t *testing.T) {
	const size = 64 << 10
	for _, row := range []struct {
		name    string
		members int
		opts    Options
		folds   bool
	}{
		{"raid0x1", 1, Options{Mode: Raid0}, true},
		{"raid0x1+checksums", 1, Options{Mode: Raid0, Checksums: true}, false},
		{"raid0x3", 3, Options{Mode: Raid0}, false},
		{"afraidx3", 3, Options{Mode: Afraid}, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, probes := openRuns(t, row.members, row.opts)
			buf := pattern(size, 3)
			// cost runs fn and reports the device calls and histogram
			// entries it made.
			cost := func(fn func()) (calls, entries int64) {
				r0, w0 := deviceOps(probes)
				e0 := s.ob.devRead.Count() + s.ob.devWrite.Count()
				fn()
				r1, w1 := deviceOps(probes)
				return r1 + w1 - r0 - w0, int64(s.ob.devRead.Count() + s.ob.devWrite.Count() - e0)
			}
			stripeBytes := s.Geometry().StripeDataBytes()
			for _, op := range []struct {
				name string
				do   func(p []byte, off int64) (int, error)
			}{{"write", s.WriteAt}, {"read", s.ReadAt}} {
				byStripe, stripes := cost(func() {
					for off := int64(0); off < size; off += stripeBytes {
						if _, err := op.do(buf[off:min(off+stripeBytes, size)], off); err != nil {
							t.Fatal(err)
						}
					}
				})
				whole, entries := cost(func() {
					if _, err := op.do(buf, 0); err != nil {
						t.Fatal(err)
					}
				})
				wantCalls, wantEntries := byStripe, stripes
				if row.folds {
					if byStripe != size/runUnit {
						t.Fatalf("%s stripe by stripe made %d device calls, want %d", op.name, byStripe, size/runUnit)
					}
					wantCalls, wantEntries = 1, 1
				}
				if whole != wantCalls || entries != wantEntries {
					t.Errorf("64 KiB %s: %d device calls and %d histogram entries, want %d and %d (stripe by stripe: %d and %d)",
						op.name, whole, entries, wantCalls, wantEntries, byStripe, stripes)
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
	s, _ := openRuns(t, 1, Options{Mode: Raid0, ScrubWorkers: 1})
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
