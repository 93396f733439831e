package disk

import (
	"testing"
	"testing/quick"
	"time"
)

func TestC3325Validates(t *testing.T) {
	p := C3325()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.CapacityBytes() < 2e9 {
		t.Fatalf("capacity = %d bytes, want >= 2GB (decimal, as marketed)", p.CapacityBytes())
	}
	if p.CapacityBytes() > 3<<30 {
		t.Fatalf("capacity = %d bytes, implausibly large for a C3325", p.CapacityBytes())
	}
}

func TestRotation5400RPM(t *testing.T) {
	p := C3325()
	rot := p.Rotation()
	want := time.Minute / 5400
	if rot != want {
		t.Fatalf("rotation = %v, want %v", rot, want)
	}
	if rot < 11*time.Millisecond || rot > 12*time.Millisecond {
		t.Fatalf("rotation = %v, want ~11.1ms", rot)
	}
}

func TestSeekCurveShape(t *testing.T) {
	p := C3325()
	if p.SeekTime(0) != 0 {
		t.Fatal("zero-distance seek should be free")
	}
	one := p.SeekTime(1)
	if one < p.SeekSettle {
		t.Fatalf("single-cylinder seek %v below settle %v", one, p.SeekSettle)
	}
	prev := time.Duration(0)
	for d := 1; d < cylinders(p); d *= 2 {
		s := p.SeekTime(d)
		if s < prev {
			t.Fatalf("seek time decreased: seek(%d)=%v < %v", d, s, prev)
		}
		prev = s
	}
	max := p.SeekTime(cylinders(p) - 1)
	if max < 15*time.Millisecond || max > 30*time.Millisecond {
		t.Fatalf("full-stroke seek = %v, want 15-30ms for this class of drive", max)
	}
	avg := p.SeekTime(cylinders(p) / 3)
	if avg < 7*time.Millisecond || avg > 14*time.Millisecond {
		t.Fatalf("avg-distance seek = %v, want ~10ms", avg)
	}
}

func TestLocateRoundTripOrdering(t *testing.T) {
	p := C3325()
	// Sequential sectors advance sector-then-head-then-cylinder.
	prev := p.Locate(0)
	if prev.Cyl != 0 || prev.Head != 0 || prev.Sector != 0 {
		t.Fatalf("sector 0 at %+v", prev)
	}
	for s := int64(1); s < 3000; s++ {
		cur := p.Locate(s)
		switch {
		case cur.Cyl == prev.Cyl && cur.Head == prev.Head:
			if cur.Sector != prev.Sector+1 {
				t.Fatalf("sector %d: discontinuous sector %+v after %+v", s, cur, prev)
			}
		case cur.Cyl == prev.Cyl:
			if cur.Head != prev.Head+1 || cur.Sector != 0 {
				t.Fatalf("sector %d: bad head advance %+v after %+v", s, cur, prev)
			}
		default:
			if cur.Cyl != prev.Cyl+1 || cur.Head != 0 || cur.Sector != 0 {
				t.Fatalf("sector %d: bad cylinder advance %+v after %+v", s, cur, prev)
			}
		}
		prev = cur
	}
}

func TestLocateZoneBoundaries(t *testing.T) {
	p := C3325()
	// Last sector of zone 0.
	z0 := int64(p.Zones[0].Cylinders) * int64(p.Heads) * int64(p.Zones[0].SectorsPerTrack)
	last := p.Locate(z0 - 1)
	if last.Cyl != p.Zones[0].Cylinders-1 || last.Spt != p.Zones[0].SectorsPerTrack {
		t.Fatalf("last zone-0 sector at %+v", last)
	}
	first := p.Locate(z0)
	if first.Cyl != p.Zones[0].Cylinders || first.Spt != p.Zones[1].SectorsPerTrack {
		t.Fatalf("first zone-1 sector at %+v", first)
	}
}

func TestLocateQuickInRange(t *testing.T) {
	p := C3325()
	capS := p.CapacitySectors()
	prop := func(raw int64) bool {
		s := raw % capS
		if s < 0 {
			s += capS
		}
		c := p.Locate(s)
		return c.Cyl >= 0 && c.Cyl < cylinders(p) &&
			c.Head >= 0 && c.Head < p.Heads &&
			c.Sector >= 0 && c.Sector < c.Spt
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServiceTimeBounds(t *testing.T) {
	p := C3325()
	d := New(p)
	maxOne := p.SeekTime(cylinders(p)-1) + p.Rotation() + p.Rotation() + p.ControllerOverhead + p.WriteSettle + p.HeadSwitch
	now := time.Duration(0)
	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 2000; i++ {
		off := int64(next()%uint64(p.CapacityBytes()-65536)) / SectorSize * SectorSize
		op := Op{Write: next()%2 == 0, Offset: off, Length: 8 << 10}
		st := d.ServiceTime(now, op)
		if st <= 0 {
			t.Fatalf("non-positive service time %v", st)
		}
		if st > maxOne+2*p.Rotation() {
			t.Fatalf("service time %v exceeds mechanical bound %v", st, maxOne)
		}
		now += st
	}
	stats := d.Stats()
	if stats.Ops != 2000 {
		t.Fatalf("ops = %d", stats.Ops)
	}
	if stats.Busy != now {
		t.Fatalf("busy %v != elapsed %v for back-to-back ops", stats.Busy, now)
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	p := C3325()

	seq := New(p)
	now := time.Duration(0)
	for i := 0; i < 500; i++ {
		now += seq.ServiceTime(now, Op{Offset: int64(i) * 8 << 10, Length: 8 << 10})
	}
	seqTotal := now

	rnd := New(p)
	now = 0
	rng := uint64(999)
	for i := 0; i < 500; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		off := int64(rng%uint64(p.CapacityBytes()-16384)) / SectorSize * SectorSize
		now += rnd.ServiceTime(now, Op{Offset: off, Length: 8 << 10})
	}
	rndTotal := now

	// Without a track buffer each sequential op still pays a near-full
	// rotation (the controller overhead lets the next sector pass by),
	// so the gain is the saved seek: expect at least ~25% faster.
	if float64(seqTotal) >= 0.78*float64(rndTotal) {
		t.Fatalf("sequential %v not clearly faster than random %v", seqTotal, rndTotal)
	}
}

func TestRandomSmallIOAveragePlausible(t *testing.T) {
	// An 8KB random I/O on a 5400 RPM ~10ms-seek disk should average
	// roughly seek (~10ms) + half rotation (~5.6ms) + transfer (<1ms)
	// + overhead => 15-22ms.
	p := C3325()
	d := New(p)
	now := time.Duration(0)
	rng := uint64(777)
	n := 2000
	for i := 0; i < n; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		off := int64(rng%uint64(p.CapacityBytes()-16384)) / SectorSize * SectorSize
		now += d.ServiceTime(now, Op{Offset: off, Length: 8 << 10})
	}
	avg := now / time.Duration(n)
	if avg < 12*time.Millisecond || avg > 25*time.Millisecond {
		t.Fatalf("random 8KB average = %v, want 12-25ms", avg)
	}
}

func TestSameSectorRereadCostsFullRotation(t *testing.T) {
	p := C3325()
	d := New(p)
	op := Op{Offset: 1 << 20, Length: 4 << 10}
	t0 := d.ServiceTime(0, op)
	// Immediately re-reading the same sectors requires ~a full rotation
	// (minus overhead absorbed into it).
	t1 := d.ServiceTime(t0, op)
	if t1 < p.Rotation()/2 {
		t.Fatalf("immediate re-read took %v, expected near a rotation (%v)", t1, p.Rotation())
	}
	if t1 > p.Rotation()+p.ControllerOverhead+p.HeadSwitch+2*time.Millisecond {
		t.Fatalf("re-read took %v, expected about one rotation", t1)
	}
}

func TestTrackCrossingTransfer(t *testing.T) {
	p := C3325()
	d := New(p)
	spt := p.Zones[0].SectorsPerTrack
	trackBytes := int64(spt) * SectorSize
	// A transfer of three tracks must cost at least three rotations of
	// media time.
	st := d.ServiceTime(0, Op{Offset: 0, Length: 3 * trackBytes})
	if st < 3*p.Rotation() {
		t.Fatalf("3-track read took %v, below 3 rotations %v", st, 3*p.Rotation())
	}
	if st > 5*p.Rotation() {
		t.Fatalf("3-track read took %v, above 5 rotations (skew too costly)", st)
	}
}

func TestZeroLengthPanics(t *testing.T) {
	d := New(C3325())
	defer func() {
		if recover() == nil {
			t.Error("zero-length op did not panic")
		}
	}()
	d.ServiceTime(0, Op{Offset: 0, Length: 0})
}

func TestWriteSettleCostsItsMeanOverPhases(t *testing.T) {
	// The rotational wait absorbs fixed pre-transfer overheads except
	// when they push the head past the target sector, costing a whole
	// extra rotation. Averaged over uniformly distributed arrival
	// phases, that extra-rotation probability makes the mean cost of
	// WriteSettle equal WriteSettle itself.
	p := C3325()
	rot := p.Rotation()
	n := 500
	var sumR, sumW time.Duration
	for i := 0; i < n; i++ {
		start := rot * time.Duration(i) / time.Duration(n)
		a := New(p)
		b := New(p)
		sumR += a.ServiceTime(start, Op{Offset: 4 << 20, Length: 8 << 10})
		sumW += b.ServiceTime(start, Op{Write: true, Offset: 4 << 20, Length: 8 << 10})
	}
	meanDiff := (sumW - sumR) / time.Duration(n)
	tol := 60 * time.Microsecond // grid granularity
	if meanDiff < p.WriteSettle-tol || meanDiff > p.WriteSettle+tol {
		t.Fatalf("mean write-read cost = %v, want ~WriteSettle %v", meanDiff, p.WriteSettle)
	}
}

func TestReportTimeBelowMechanical(t *testing.T) {
	p := C3325()
	d := New(p)
	op := Op{Write: true, Offset: 4 << 20, Length: 8 << 10}
	rt := d.ReportTime(op)
	st := d.ServiceTime(0, op)
	if rt >= st {
		t.Fatalf("buffered completion %v not below mechanical %v", rt, st)
	}
	// 8KB at 10MB/s is ~0.8ms plus overhead: low single-digit ms.
	if rt > 5*time.Millisecond {
		t.Fatalf("report time %v implausibly large", rt)
	}
}

// cylinders returns the model's total cylinder count.
func cylinders(p Params) int {
	n := 0
	for _, z := range p.Zones {
		n += z.Cylinders
	}
	return n
}
