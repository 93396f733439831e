// Package disk implements a mechanical disk-drive service-time model in
// the style of Ruemmler & Wilkes, "An introduction to disk drive
// modeling" (IEEE Computer, 1994) — the calibrated models the paper's
// Pantheon simulator used.
//
// The model tracks head position (cylinder, head) and derives the
// rotational position from absolute virtual time, so rotational latency
// emerges naturally rather than being drawn from a distribution. Zoned
// recording, a two-piece seek curve, head switches, track skew, and
// controller overhead are modelled; an on-disk cache is not (the paper
// disables immediate reporting and relies on the array cache).
package disk

import (
	"fmt"
	"math"
	"time"
)

// SectorSize is the fixed sector size in bytes.
const SectorSize = 512

// Zone describes a band of cylinders with a common track density.
type Zone struct {
	Cylinders       int // number of cylinders in the zone
	SectorsPerTrack int
}

// Params describes a disk model.
type Params struct {
	Name      string
	RPM       int // spindle speed
	Heads     int // tracks per cylinder
	Zones     []Zone
	TrackSkew int // sectors of skew between consecutive tracks

	// Seek curve: seek(d) = SeekShortA + SeekShortB*sqrt(d) for
	// d < SeekBoundary, and the line through the boundary point with
	// slope SeekLongSlope beyond; single-cylinder seeks cost
	// SeekSettle at minimum.
	SeekBoundary  int
	SeekShortA    time.Duration
	SeekShortB    time.Duration // per sqrt(cylinder)
	SeekLongSlope time.Duration // per cylinder
	SeekSettle    time.Duration

	HeadSwitch         time.Duration // head switch / settle time
	ControllerOverhead time.Duration // per-op command processing
	WriteSettle        time.Duration // additional overhead on writes

	// ImmediateReport, when true, lets writes complete as soon as the
	// data is in the drive's buffer (the mechanical work still occupies
	// the drive). The paper's traced systems used synchronous writes
	// "to disable immediate-reporting in disks that allow this", so the
	// calibrated default is off; the option exists for ablation.
	ImmediateReport bool
	// BusMBps is the interface transfer rate used for the buffered
	// completion time (default 10 MB/s SCSI-2 when zero).
	BusMBps float64
}

// C3325 returns parameters approximating the HP C3325 2GB 3.5" 5400 RPM
// drive the paper modelled. Figures follow the published class of drive:
// ~10.5 ms average seek, 11.1 ms rotation, zoned 96-132 sectors/track.
func C3325() Params {
	return Params{
		Name:  "HP-C3325",
		RPM:   5400,
		Heads: 9,
		Zones: []Zone{
			{Cylinders: 500, SectorsPerTrack: 132},
			{Cylinders: 500, SectorsPerTrack: 126},
			{Cylinders: 500, SectorsPerTrack: 120},
			{Cylinders: 500, SectorsPerTrack: 114},
			{Cylinders: 500, SectorsPerTrack: 108},
			{Cylinders: 500, SectorsPerTrack: 102},
			{Cylinders: 500, SectorsPerTrack: 99},
			{Cylinders: 500, SectorsPerTrack: 96},
		},
		TrackSkew:          8,
		SeekBoundary:       400,
		SeekShortA:         3 * time.Millisecond,
		SeekShortB:         250 * time.Microsecond,
		SeekLongSlope:      2500 * time.Nanosecond,
		SeekSettle:         1700 * time.Microsecond,
		HeadSwitch:         1 * time.Millisecond,
		ControllerOverhead: 1100 * time.Microsecond,
		WriteSettle:        200 * time.Microsecond,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.RPM <= 0 {
		return fmt.Errorf("disk: RPM %d must be positive", p.RPM)
	}
	if p.Heads <= 0 {
		return fmt.Errorf("disk: heads %d must be positive", p.Heads)
	}
	if len(p.Zones) == 0 {
		return fmt.Errorf("disk: at least one zone required")
	}
	for i, z := range p.Zones {
		if z.Cylinders <= 0 || z.SectorsPerTrack <= 0 {
			return fmt.Errorf("disk: zone %d has non-positive geometry", i)
		}
	}
	return nil
}

// CapacitySectors returns the total number of sectors.
func (p Params) CapacitySectors() int64 {
	var n int64
	for _, z := range p.Zones {
		n += int64(z.Cylinders) * int64(p.Heads) * int64(z.SectorsPerTrack)
	}
	return n
}

// CapacityBytes returns the raw capacity in bytes.
func (p Params) CapacityBytes() int64 { return p.CapacitySectors() * SectorSize }

// Rotation returns the time of one full revolution.
func (p Params) Rotation() time.Duration {
	return time.Duration(float64(time.Minute) / float64(p.RPM))
}

// SeekTime returns the time to seek d cylinders (d >= 0).
func (p Params) SeekTime(d int) time.Duration {
	if d <= 0 {
		return 0
	}
	if d < p.SeekBoundary {
		t := p.SeekShortA + time.Duration(float64(p.SeekShortB)*math.Sqrt(float64(d)))
		if t < p.SeekSettle {
			t = p.SeekSettle
		}
		return t
	}
	base := p.SeekShortA + time.Duration(float64(p.SeekShortB)*math.Sqrt(float64(p.SeekBoundary)))
	return base + time.Duration(d-p.SeekBoundary)*p.SeekLongSlope
}

// Chs is a physical sector address.
type Chs struct {
	Cyl    int
	Head   int
	Sector int
	Spt    int // sectors per track at this cylinder (convenience)
}

// Locate maps a logical sector number to its physical address. Sectors
// are laid out cylinder-major: all tracks of cylinder 0, then cylinder 1,
// and so on, matching conventional LBA ordering.
func (p Params) Locate(sector int64) Chs {
	if sector < 0 || sector >= p.CapacitySectors() {
		panic(fmt.Sprintf("disk: sector %d out of range [0,%d)", sector, p.CapacitySectors()))
	}
	cylBase := 0
	for _, z := range p.Zones {
		zoneSectors := int64(z.Cylinders) * int64(p.Heads) * int64(z.SectorsPerTrack)
		if sector < zoneSectors {
			perCyl := int64(p.Heads) * int64(z.SectorsPerTrack)
			cyl := int(sector / perCyl)
			rem := sector % perCyl
			head := int(rem / int64(z.SectorsPerTrack))
			sec := int(rem % int64(z.SectorsPerTrack))
			return Chs{Cyl: cylBase + cyl, Head: head, Sector: sec, Spt: z.SectorsPerTrack}
		}
		sector -= zoneSectors
		cylBase += z.Cylinders
	}
	panic("disk: Locate fell off zone table")
}

// Op is a single disk transfer.
type Op struct {
	Write  bool
	Offset int64 // byte offset, sector-aligned preferred but not required
	Length int64 // bytes; must be positive
}

// Disk is a single drive with mechanical state. It is not safe for
// concurrent use; the simulator serializes access per disk.
type Disk struct {
	p       Params
	curCyl  int
	curHead int

	// accumulated statistics
	ops       uint64
	busy      time.Duration
	seekTime  time.Duration
	rotTime   time.Duration
	xferTime  time.Duration
	bytesRead int64
	bytesWrit int64
}

// New creates a disk at rotational phase zero: the arrays built from it
// are spin-synchronized, every disk at the same phase.
func New(p Params) *Disk {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Disk{p: p}
}

// angleAt returns the rotational position at time t (never negative) as
// a fraction of a revolution in [0, 1).
func (d *Disk) angleAt(t time.Duration) float64 {
	rot := d.p.Rotation()
	return float64(t%rot) / float64(rot)
}

// rotWait returns the delay from time t until sector sec (of spt) passes
// under the head.
func (d *Disk) rotWait(t time.Duration, sec, spt int) time.Duration {
	rot := d.p.Rotation()
	target := float64(sec) / float64(spt)
	cur := d.angleAt(t)
	frac := target - cur
	if frac < 0 {
		frac += 1
	}
	return time.Duration(frac * float64(rot))
}

// ServiceTime computes the time to perform op starting at absolute
// virtual time start, updates the head position, and returns the
// duration. The caller is responsible for queueing (one op at a time).
func (d *Disk) ServiceTime(start time.Duration, op Op) time.Duration {
	if op.Length <= 0 {
		panic(fmt.Sprintf("disk: op length %d must be positive", op.Length))
	}
	startSector := op.Offset / SectorSize
	nSectors := (op.Offset+op.Length+SectorSize-1)/SectorSize - startSector
	loc := d.p.Locate(startSector)

	t := start + d.p.ControllerOverhead
	if op.Write {
		t += d.p.WriteSettle
	}

	// Positioning: seek and head switch overlap; take the max.
	dist := loc.Cyl - d.curCyl
	if dist < 0 {
		dist = -dist
	}
	pos := d.p.SeekTime(dist)
	if loc.Head != d.curHead && pos < d.p.HeadSwitch {
		pos = d.p.HeadSwitch
	}
	t += pos
	seekEnd := t
	d.seekTime += pos

	// Rotational latency to the first sector.
	rw := d.rotWait(t, loc.Sector, loc.Spt)
	t += rw
	d.rotTime += rw

	// Media transfer, crossing track and cylinder boundaries as needed.
	rot := d.p.Rotation()
	remaining := nSectors
	sec, head, cyl, spt := loc.Sector, loc.Head, loc.Cyl, loc.Spt
	for remaining > 0 {
		onTrack := int64(spt - sec)
		m := remaining
		if m > onTrack {
			m = onTrack
		}
		xfer := time.Duration(float64(m) / float64(spt) * float64(rot))
		t += xfer
		d.xferTime += xfer
		remaining -= m
		sec += int(m)
		if remaining > 0 {
			// Advance to the next track. Track skew is chosen by the
			// manufacturer so that sector 0 of the next track arrives
			// under the head just as the switch settles; we therefore
			// charge max(switch, skew window) and continue transferring
			// without an extra rotational realignment.
			sec = 0
			head++
			switchCost := d.p.HeadSwitch
			if head == d.p.Heads {
				head = 0
				cyl++
				sc := d.p.SeekTime(1)
				if sc > switchCost {
					switchCost = sc
				}
				spt = d.sptAt(cyl)
			}
			skew := time.Duration(float64(d.p.TrackSkew) / float64(spt) * float64(rot))
			if skew > switchCost {
				switchCost = skew
			}
			t += switchCost
		}
	}

	d.curCyl = cyl
	d.curHead = head
	d.ops++
	d.busy += t - start
	if op.Write {
		d.bytesWrit += op.Length
	} else {
		d.bytesRead += op.Length
	}
	_ = seekEnd
	return t - start
}

// Stats reports accumulated per-disk activity.
type Stats struct {
	Ops          uint64
	Busy         time.Duration
	Seek         time.Duration
	Rotational   time.Duration
	Transfer     time.Duration
	BytesRead    int64
	BytesWritten int64
}

// Stats returns a snapshot of the disk's accumulated statistics.
func (d *Disk) Stats() Stats {
	return Stats{
		Ops:          d.ops,
		Busy:         d.busy,
		Seek:         d.seekTime,
		Rotational:   d.rotTime,
		Transfer:     d.xferTime,
		BytesRead:    d.bytesRead,
		BytesWritten: d.bytesWrit,
	}
}

// ReportTime returns the buffered completion time of an op under
// immediate reporting: command overhead plus the bus transfer. The
// mechanical time from ServiceTime still occupies the drive.
func (d *Disk) ReportTime(op Op) time.Duration {
	bus := d.p.BusMBps
	if bus <= 0 {
		bus = 10
	}
	xfer := time.Duration(float64(op.Length) / (bus * 1e6) * float64(time.Second))
	return d.p.ControllerOverhead + xfer
}

// sptAt returns sectors-per-track for a cylinder.
func (d *Disk) sptAt(cyl int) int {
	base := 0
	for _, z := range d.p.Zones {
		if cyl < base+z.Cylinders {
			return z.SectorsPerTrack
		}
		base += z.Cylinders
	}
	// Past the last cylinder (transfer ran off the end); keep the
	// innermost density. Ops are validated against capacity upstream.
	return d.p.Zones[len(d.p.Zones)-1].SectorsPerTrack
}
