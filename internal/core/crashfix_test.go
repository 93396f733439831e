package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"afraid/internal/layout"
)

// TestAfraid6FlushRebuildsTornP: in Afraid6 (deferred Q), a marked
// stripe can carry a *torn* synchronous P write after a crash. The
// scrubber must rewrite BOTH parities before unmarking, or the stale P
// survives as latent corruption that only surfaces on the next disk
// loss.
func TestAfraid6FlushRebuildsTornP(t *testing.T) {
	const unit = 512
	devs := make([]BlockDevice, 5)
	mems := make([]*MemDevice, 5)
	for i := range devs {
		mems[i] = NewMemDevice(16 * unit)
		devs[i] = mems[i]
	}
	s, err := Open(devs, &MemNVRAM{}, Options{Mode: Afraid6, StripeUnit: unit, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := bytes.Repeat([]byte{0x3c}, unit)
	if _, err := s.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	// Stripe 0 is marked (Q deferred). Simulate the crash-torn P write:
	// garbage lands where the synchronous P update went.
	geo := s.Geometry()
	pDisk := geo.ParityDisk(0)
	if _, err := mems[pDisk].WriteAt(bytes.Repeat([]byte{0xFF}, unit), geo.DiskOffset(0)); err != nil {
		t.Fatal(err)
	}

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	bad, err := s.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("flush left stale parity on stripes %v (scrub must rewrite P as well as Q)", bad)
	}
}

// gatedDevice holds its blockAt-th write until the gate is released,
// letting a test freeze a repair sweep mid-array deterministically, and
// counts its reads and its writes at each offset.
type gatedDevice struct {
	*MemDevice
	reads   atomic.Int64
	mu      sync.Mutex
	writes  int
	at      map[int64]int
	blockAt int
	gate    chan struct{}
	reached chan struct{}
}

func newGatedDevice(size int64, blockAt int) *gatedDevice {
	return &gatedDevice{
		MemDevice: NewMemDevice(size),
		at:        make(map[int64]int),
		blockAt:   blockAt,
		gate:      make(chan struct{}),
		reached:   make(chan struct{}),
	}
}

func (g *gatedDevice) ReadAt(p []byte, off int64) (int, error) {
	g.reads.Add(1)
	return g.MemDevice.ReadAt(p, off)
}

func (g *gatedDevice) WriteAt(p []byte, off int64) (int, error) {
	g.mu.Lock()
	g.writes++
	g.at[off]++
	hit := g.writes == g.blockAt
	g.mu.Unlock()
	if hit {
		close(g.reached)
		<-g.gate
	}
	return g.MemDevice.WriteAt(p, off)
}

const sweptStripes, sweptUnit = 256, 512

// errTransient is a device error that is not a fail-stop failure.
var errTransient = errors.New("transient read error")

// flakyDev is a member whose reads fail with errTransient while broken.
type flakyDev struct {
	*MemDevice
	broken atomic.Bool
}

func (f *flakyDev) ReadAt(p []byte, off int64) (int, error) {
	if f.broken.Load() {
		return 0, errTransient
	}
	return f.MemDevice.ReadAt(p, off)
}

// sweptArray is a flushed 4-disk array of 256 stripes whose disk 1 has
// failed and is being repaired onto rep by one sweep worker, frozen
// inside stripe 100: rep holds the sweep's write of stripe 100's unit, and
// the sweep writes one unit (and with checksums its slot) per stripe.
// Stripes 0–99 are swept, 101–255 still stale; stripe 100's lock (pool
// slot 36) is held, so the tests keep clear of stripes 36 and 164. members
// are the original devices by disk, devs what the store was opened over;
// want is what every byte should read back.
type sweptArray struct {
	s         *Store
	opts      Options
	nv        *MemNVRAM
	devs      []BlockDevice
	members   []*flakyDev
	survivors []*probeDev
	rep       *gatedDevice
	want      []byte
	done      chan struct{}
	report    DamageReport
	err       error
}

// newSweptArray opens the array with opts (its Mode and Checksums; the
// rest is the array's own), fills every stripe with fill(0xA0, stripe),
// flushes, and leaves the dirty stripes unredundant, by a write to their
// first unit, when disk 1 fails.
func newSweptArray(t *testing.T, opts Options, dirty ...int64) *sweptArray {
	t.Helper()
	opts.StripeUnit, opts.DisableScrubber, opts.ScrubWorkers = sweptUnit, true, 1
	size, blockAt := int64(sweptStripes*sweptUnit), 101
	if opts.Checksums {
		size += layout.Geometry{StripeUnit: sweptUnit, DiskSize: size}.ChecksumTrailerBytes()
		blockAt = 201
	}
	a := &sweptArray{opts: opts, nv: &MemNVRAM{}, rep: newGatedDevice(size, blockAt), done: make(chan struct{})}
	a.devs = make([]BlockDevice, 4)
	for i := range a.devs {
		m := &flakyDev{MemDevice: NewMemDevice(size)}
		p := &probeDev{BlockDevice: m}
		if i != 1 {
			a.survivors = append(a.survivors, p)
		}
		a.members = append(a.members, m)
		a.devs[i] = p
	}
	s, err := Open(a.devs, a.nv, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	a.s, a.want = s, make([]byte, s.Capacity())
	sdb := s.geo.StripeDataBytes()
	for st := int64(0); st < sweptStripes; st++ {
		a.write(t, fill(s, 0xA0, st), st*sdb)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, st := range dirty {
		a.write(t, fill(s, 0xC3, st)[:sweptUnit], st*sdb)
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(a.done)
		a.report, a.err = s.RepairDisk(1, a.rep)
	}()
	<-a.rep.reached
	return a
}

// fill is stripe st's bytes for a tag: distinct per stripe and per tag.
func fill(s *Store, tag byte, st int64) []byte {
	return bytes.Repeat([]byte{tag, byte(st)}, int(s.geo.StripeDataBytes())/2)
}

func (a *sweptArray) write(t *testing.T, p []byte, off int64) {
	t.Helper()
	if _, err := a.s.WriteAt(p, off); err != nil {
		t.Fatalf("write at %d: %v", off, err)
	}
	copy(a.want[off:], p)
}

// release opens the gate and waits for RepairDisk to return.
func (a *sweptArray) release() {
	close(a.rep.gate)
	<-a.done
}

// lost folds a damage report into want: its ranges read back zeroed.
func (a *sweptArray) lost(r DamageReport) {
	for _, d := range r.Lost {
		clear(a.want[d.Offset : d.Offset+d.Length])
	}
}

// check reads every unit back: its want bytes, or ErrDataLoss where loss
// allows it. It returns how many units reported loss.
func (a *sweptArray) check(t *testing.T, loss func(st int64, disk int) bool) (lost int) {
	t.Helper()
	unit := int64(sweptUnit)
	got := make([]byte, unit)
	for off := int64(0); off < a.s.Capacity(); off += unit {
		st, idx := off/a.s.geo.StripeDataBytes(), int(off%a.s.geo.StripeDataBytes()/unit)
		_, err := a.s.ReadAt(got, off)
		switch {
		case err != nil && loss(st, a.s.geo.DataDisk(st, idx)) && errors.Is(err, ErrDataLoss):
			lost++
		case err != nil:
			t.Fatalf("stripe %d unit %d: %v", st, idx, err)
		case !bytes.Equal(got, a.want[off:off+unit]):
			t.Fatalf("stripe %d unit %d does not read back its latest bytes", st, idx)
		}
	}
	return lost
}

func (a *sweptArray) parityClean(t *testing.T) {
	t.Helper()
	if err := a.s.Flush(); err != nil {
		t.Fatal(err)
	}
	if bad, err := a.s.CheckParity(); err != nil || len(bad) != 0 {
		t.Fatalf("parity after the repair: stripes %v inconsistent, err %v", bad, err)
	}
}

// unitOn returns the data index of disk d's unit in stripe st, or -1 when
// d holds the stripe's parity.
func unitOn(s *Store, st int64, d int) int {
	for idx := 0; idx < s.geo.DataDisks(); idx++ {
		if s.geo.DataDisk(st, idx) == d {
			return idx
		}
	}
	return -1
}

func noLoss(int64, int) bool { return false }

// TestReplacementIsAMemberDuringRepair: RepairDisk installs the
// replacement at once, and a stripe is failed on it only while its stale
// bit stands. With the sweep frozen at stripe 100, a read of a swept
// stripe's unit on the repaired disk is one read of the replacement and
// none of a survivor; a degraded write to a stripe ahead of the sweep puts
// its unit on the replacement at once, and the sweep, finding the stripe
// off the stale map, does not write it again.
func TestReplacementIsAMemberDuringRepair(t *testing.T) {
	a := newSweptArray(t, Options{Mode: Afraid})
	s, unit := a.s, int64(sweptUnit)
	sdb := s.geo.StripeDataBytes()

	passed := int64(1)
	for unitOn(s, passed, 1) < 0 {
		passed++
	}
	off := passed*sdb + int64(unitOn(s, passed, 1))*unit
	r0, w0 := deviceOps(a.survivors)
	reads0 := a.rep.reads.Load()
	got := make([]byte, unit)
	if _, err := s.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a.want[off:off+unit]) {
		t.Fatalf("swept stripe %d: its unit on the replacement reads wrong bytes", passed)
	}
	r1, w1 := deviceOps(a.survivors)
	if calls, n := r1-r0+w1-w0, a.rep.reads.Load()-reads0; calls != 0 || n != 1 {
		t.Fatalf("read of swept stripe %d's unit: %d survivor calls and %d replacement reads, want 0 and 1", passed, calls, n)
	}

	ahead := int64(150)
	for unitOn(s, ahead, 1) < 0 {
		ahead++
	}
	a.write(t, fill(s, 0xB7, ahead), ahead*sdb)
	off = ahead*sdb + int64(unitOn(s, ahead, 1))*unit
	if _, err := a.rep.MemDevice.ReadAt(got, s.geo.DiskOffset(ahead)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a.want[off:off+unit]) {
		t.Fatalf("degraded write to stale stripe %d: its unit is not on the replacement before the sweep reaches it", ahead)
	}
	// Writes to swept stripes are an ordinary array's.
	for st := int64(0); st < 30; st++ {
		a.write(t, fill(s, 0xB7, st), st*sdb)
	}
	a.release()
	if a.err != nil {
		t.Fatal(a.err)
	}
	if len(a.report.Lost) != 0 {
		t.Fatalf("repair reported loss on a flushed array: %+v", a.report.Lost)
	}
	a.rep.mu.Lock()
	n := a.rep.at[s.geo.DiskOffset(ahead)]
	a.rep.mu.Unlock()
	if n != 1 {
		t.Fatalf("stripe %d's unit was written to the replacement %d times, want once (by the degraded write)", ahead, n)
	}
	if n := s.Stats().RecoveredStripes; n != sweptStripes {
		t.Fatalf("RecoveredStripes = %d, want all %d, the one a degraded write stored whole included", n, sweptStripes)
	}
	a.check(t, noLoss)
	a.parityClean(t)
}

// TestReplacementDiesMidRepair: a replacement that fail-stops mid-sweep
// abandons the repair. RepairDisk returns an error with what the sweep
// salvaged before, the disk stays dead, and every unit, swept or not,
// reads back its acknowledged bytes — zeroes where the report says so —
// or reports loss, which only a stripe unredundant when the replacement
// died may: one written after the sweep passed it, which deferred its
// parity as any whole stripe's write does. A second repair then finishes.
func TestReplacementDiesMidRepair(t *testing.T) {
	a := newSweptArray(t, Options{Mode: Afraid}, 2, 3)
	s, unit := a.s, int64(sweptUnit)
	sdb := s.geo.StripeDataBytes()
	deferred := []int64{5, 6, 7, 8}
	for _, st := range append(deferred, 150, 151) {
		a.write(t, fill(s, 0xD1, st)[:sdb/2], st*sdb+unit/2)
	}
	a.rep.Fail()
	a.release()
	if a.err == nil {
		t.Fatal("RepairDisk onto a replacement that failed mid-sweep succeeded")
	}
	if dead := s.DeadDisks(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadDisks = %v after the abandoned repair, want [1]", dead)
	}
	// onDisk1 counts the stripes whose disk 1 holds a data unit.
	onDisk1 := func(stripes []int64) (n int) {
		for _, st := range stripes {
			if unitOn(s, st, 1) >= 0 {
				n++
			}
		}
		return n
	}
	if want := onDisk1([]int64{2, 3}); len(a.report.Lost) != want {
		t.Fatalf("abandoned repair reported %+v, want the %d units it salvaged", a.report.Lost, want)
	}
	a.lost(a.report)
	exposed := func(st int64, disk int) bool { return disk == 1 && slices.Contains(deferred, st) }
	if lost, want := a.check(t, exposed), onDisk1(deferred); lost != want {
		t.Fatalf("%d units report loss, want the %d on disk 1 of the stripes written after the sweep passed them", lost, want)
	}

	report, err := s.RepairDisk(1, NewMemDevice(sweptStripes*sweptUnit))
	if err != nil {
		t.Fatal(err)
	}
	if want := onDisk1(deferred); len(report.Lost) != want {
		t.Fatalf("second repair reported %+v, want the %d units that were exposed", report.Lost, want)
	}
	for _, d := range report.Lost {
		if !exposed(d.Stripe, s.geo.DataDisk(d.Stripe, int((d.Offset-d.Stripe*sdb)/unit))) {
			t.Fatalf("second repair reported %+v, which was redundant when the replacement died", d)
		}
	}
	a.lost(report)
	a.check(t, noLoss)
	a.parityClean(t)
}

// TestRepairStopsMidwayAndResumes: a survivor's error that is not a
// fail-stop stops the sweep, but the replacement stays installed with its
// stale map. Stripes the sweep passed took AFRAID writes, which deferred
// their parity and so live only on the replacement: they must still read
// back. The disk stays failed, a repair onto another device is refused,
// and RepairDisk onto the same one resumes the sweep and finishes.
func TestRepairStopsMidwayAndResumes(t *testing.T) {
	a := newSweptArray(t, Options{Mode: Afraid})
	s, unit := a.s, int64(sweptUnit)
	sdb := s.geo.StripeDataBytes()
	for _, st := range []int64{5, 6, 7, 8} {
		a.write(t, fill(s, 0xD1, st)[:sdb/2], st*sdb+unit/2)
	}
	a.members[2].broken.Store(true)
	a.release()
	if !errors.Is(a.err, errTransient) {
		t.Fatalf("repair with a survivor failing reads: %v, want its error", a.err)
	}
	a.members[2].broken.Store(false)
	if dead := s.DeadDisks(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadDisks = %v after the stopped repair, want [1]", dead)
	}
	a.check(t, noLoss)
	if _, err := s.RepairDisk(1, NewMemDevice(sweptStripes*sweptUnit)); err == nil {
		t.Fatal("a repair onto another device replaced the one holding the swept stripes")
	}
	report, err := s.RepairDisk(1, a.rep)
	if err != nil {
		t.Fatalf("resumed repair: %v", err)
	}
	if len(report.Lost) != 0 {
		t.Fatalf("resumed repair reported loss on a flushed array: %+v", report.Lost)
	}
	if dead := s.DeadDisks(); len(dead) != 0 {
		t.Fatalf("DeadDisks = %v after the resumed repair", dead)
	}
	a.check(t, noLoss)
	a.parityClean(t)
}

// reopen closes the store and opens it again over the same devices, with
// slot1 in slot 1. A non-nil img makes the Close an abandon: the marking
// memory is left holding img, the image it held when the power failed.
func (a *sweptArray) reopen(t *testing.T, img []byte, slot1 BlockDevice) {
	t.Helper()
	a.s.Close()
	if img != nil {
		if err := a.nv.Store(img); err != nil {
			t.Fatal(err)
		}
	}
	a.devs[1] = slot1
	s, err := Open(a.devs, a.nv, a.opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	a.s = s
}

// image is the marking memory as a power cut now would leave it.
func (a *sweptArray) image(t *testing.T) []byte {
	t.Helper()
	img, err := a.nv.Load()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRepairResumesAcrossReopen: a repair stopped midway survives the
// store's end with the replacement left in its slot — a Close, a crash
// after more writes (the marking memory as it was before Close), or a
// power cut inside the sweep. The stripes it has not rebuilt are stale in
// the marking memory from before the replacement was installed, so after
// Open the disk is still dead — failed on them, never read there — and
// RepairDisk onto the device in the slot resumes the sweep and finishes.
// Swept stripes took writes whose deferred parity only the replacement
// encodes, and stale ones ahead of the sweep took degraded writes that put
// their unit on it.
func TestRepairResumesAcrossReopen(t *testing.T) {
	for _, mode := range []Mode{Afraid, Raid6} {
		for _, checksums := range []bool{false, true} {
			for _, end := range []string{"close", "crash", "cut"} {
				t.Run(fmt.Sprintf("%v/checksums=%v/%s", mode, checksums, end), func(t *testing.T) {
					a := newSweptArray(t, Options{Mode: mode, Checksums: checksums})
					var img []byte
					if end == "cut" {
						img = a.image(t) // the power fails with the sweep inside stripe 100
					}
					a.members[2].broken.Store(true)
					a.release()
					if !errors.Is(a.err, errTransient) {
						t.Fatalf("repair with a survivor failing reads: %v, want its error", a.err)
					}
					a.members[2].broken.Store(false)
					if end != "cut" {
						sdb, unit := a.s.geo.StripeDataBytes(), int64(sweptUnit)
						for _, st := range []int64{5, 6, 7, 8} {
							a.write(t, fill(a.s, 0xD1, st)[:sdb/2], st*sdb+unit/2)
						}
						for _, st := range []int64{150, 151} {
							a.write(t, fill(a.s, 0xB7, st), st*sdb)
						}
					}
					if end == "crash" {
						img = a.image(t)
					}

					a.reopen(t, img, a.rep)
					a.check(t, noLoss)
					if dead := a.s.DeadDisks(); len(dead) != 1 || dead[0] != 1 {
						t.Fatalf("DeadDisks = %v after the reopen, want [1]: the repair stopped midway", dead)
					}
					report, err := a.s.RepairDisk(1, a.devs[1])
					if err != nil {
						t.Fatalf("resumed repair: %v", err)
					}
					if len(report.Lost) != 0 {
						t.Fatalf("resumed repair reported loss on a flushed array: %+v", report.Lost)
					}
					if dead := a.s.DeadDisks(); len(dead) != 0 {
						t.Fatalf("DeadDisks = %v after the resumed repair", dead)
					}
					a.check(t, noLoss)
					a.parityClean(t)
				})
			}
		}
	}
}

// TestFailedRepairStaysStaleAcrossReopen: failing a disk whose repair
// stopped midway makes it stale on every stripe again, in the marking
// memory before FailDisk returns. Degraded writes then pass the replacement
// by on stripes the sweep had rebuilt, so when it answers again after a
// crash it must be trusted nowhere until a repair has rebuilt it.
func TestFailedRepairStaysStaleAcrossReopen(t *testing.T) {
	a := newSweptArray(t, Options{Mode: Afraid})
	a.members[2].broken.Store(true)
	a.release()
	a.members[2].broken.Store(false)
	if err := a.s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	sdb := a.s.geo.StripeDataBytes()
	for st := int64(10); st < 14; st++ {
		a.write(t, fill(a.s, 0xE5, st), st*sdb) // degraded: disk 1 is not written
	}
	back := NewMemDevice(a.rep.Size()) // the failed replacement, answering again
	copy(back.data, a.rep.MemDevice.data)
	a.reopen(t, a.image(t), back)
	a.check(t, noLoss)
	if dead := a.s.DeadDisks(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadDisks = %v after the reopen, want [1]", dead)
	}
	report, err := a.s.RepairDisk(1, NewMemDevice(a.rep.Size()))
	if err != nil || len(report.Lost) != 0 {
		t.Fatalf("repair onto a new device = %+v, %v; want a clean repair", report, err)
	}
	a.check(t, noLoss)
	a.parityClean(t)
}

// TestRepairAbsorbsSurvivorFailStop: on a RAID 6 array, a survivor that
// fail-stops mid-sweep is absorbed as a foreground span absorbs it, and
// the sweep retries the stripe around it and finishes: the repaired disk
// is whole, the survivor is the one dead disk, and nothing is lost.
func TestRepairAbsorbsSurvivorFailStop(t *testing.T) {
	a := newSweptArray(t, Options{Mode: Raid6})
	s := a.s
	sdb := s.geo.StripeDataBytes()
	for st := int64(0); st < 30; st++ {
		a.write(t, fill(s, 0xB7, st), st*sdb)
	}
	a.members[2].Fail()
	a.release()
	if a.err != nil {
		t.Fatalf("repair with a survivor failing mid-sweep: %v", a.err)
	}
	if len(a.report.Lost) != 0 {
		t.Fatalf("repair reported loss on a flushed RAID 6 array: %+v", a.report.Lost)
	}
	if dead := s.DeadDisks(); len(dead) != 1 || dead[0] != 2 {
		t.Fatalf("DeadDisks = %v, want [2]", dead)
	}
	a.check(t, noLoss)
	if _, err := s.RepairDisk(2, NewMemDevice(sweptStripes*sweptUnit)); err != nil {
		t.Fatal(err)
	}
	a.check(t, noLoss)
	a.parityClean(t)
}
