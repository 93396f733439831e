// Package array implements the simulated disk-array controllers the
// paper evaluates: RAID 0, RAID 5 (read-modify-write and
// reconstruct-write small-update protocols), and AFRAID (immediate data
// writes, deferred parity rebuilt in idle periods), together with the
// availability policies — pure AFRAID, the dirty-stripe threshold, and
// the MTTDL_x target policy that reverts to RAID 5 when the achieved
// availability falls below a goal. Every mode but the parity-logging
// baseline is a layout of m parities plus a sync count n: a write keeps
// the first n parities current and defers the other m−n behind a mark.
//
// The controller runs inside a sim.Engine. Requests enter through a
// host device driver (CLOOK, outstanding-request limit equal to the
// number of disks), consult the controller caches, and fan out to
// per-disk FCFS queues feeding mechanical disk models. Parity-lag and
// unprotected-time accounting matches the paper's §3 definitions.
package array

import (
	"fmt"
	"time"

	"afraid/internal/cache"
	"afraid/internal/disk"
	"afraid/internal/idle"
	"afraid/internal/iosched"
	"afraid/internal/layout"
	"afraid/internal/nvram"
	"afraid/internal/sim"
)

// Mode names a preset: a parity layout and the sync count its writes
// keep.
type Mode int

const (
	// RAID0 (m=0) never writes parity. The paper models it as "an AFRAID
	// that simply never did parity updates", which this implementation
	// reproduces: identical code paths, no parity work.
	RAID0 Mode = iota
	// RAID5 (m=1, n=1) is the traditional always-consistent array: small
	// writes pay the read-modify-write penalty in the critical path.
	RAID5
	// AFRAID (m=1, n=0) applies data writes immediately, marks the
	// stripes unredundant in NVRAM, and rebuilds parity in idle periods.
	AFRAID
	// PARITYLOG is the related-work baseline (§2): parity update images
	// are appended to a distributed log and reintegrated in batches,
	// preserving full redundancy at all times at the cost of the
	// old-data pre-read, reintegration interference, and log-full
	// stalls. A parity log is not a sync count, so it keeps its own
	// write path.
	PARITYLOG
	// RAID6 (m=2, n=2) keeps synchronous P and Q parity: six I/Os per
	// small write (§5 notes the even higher penalty).
	RAID6
	// AFRAID6 (m=2, n=1) is the §5 extension, which may "delay either or
	// both parity-block updates: if only one was deferred, partial
	// redundancy protection would be available immediately, and full
	// redundancy once the parity-rebuild happened for the other parity
	// block". This preset defers only Q.
	AFRAID6
	// AFRAID6PQ (m=2, n=0) defers both parity updates: the AFRAID fast
	// path on a P+Q layout, with no redundancy while a stripe is marked.
	AFRAID6PQ
)

// presets is each Mode's row: its name, layout and sync count.
var presets = [...]struct {
	name  string
	level layout.Level
	sync  int
}{
	RAID0:     {"RAID0", layout.RAID0, 0},
	RAID5:     {"RAID5", layout.RAID5, 1},
	AFRAID:    {"AFRAID", layout.RAID5, 0},
	PARITYLOG: {"PARITYLOG", layout.RAID5, 1},
	RAID6:     {"RAID6", layout.RAID6, 2},
	AFRAID6:   {"AFRAID6", layout.RAID6, 1},
	AFRAID6PQ: {"AFRAID6PQ", layout.RAID6, 0},
}

func (m Mode) valid() bool { return m >= 0 && int(m) < len(presets) }

// String returns the mode name.
func (m Mode) String() string {
	if !m.valid() {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return presets[m].name
}

// Parities returns the mode's parity count m and sync count n: a write
// keeps the first n parities current and leaves the other m−n stale
// behind a mark until the background rebuild writes them.
func (m Mode) Parities() (int, int) {
	p := presets[m]
	return p.level.ParityUnits(), p.sync
}

// Policy carries the AFRAID availability knobs.
type Policy struct {
	// IdleDelay is the quiescence threshold before background parity
	// rebuilding starts. Zero selects the paper's 100 ms default.
	IdleDelay time.Duration
	// AdaptiveIdle replaces the fixed timer with the backoff detector.
	AdaptiveIdle bool
	// PredictiveIdle replaces the fixed timer with the Golding-style
	// moving-average idle-period predictor. The paper ran one but
	// ignored its output ("the output from the idle-period predictor
	// was ignored"); enabling it here is an ablation.
	PredictiveIdle bool
	// DirtyThreshold, when positive, starts a parity rebuild as soon
	// as more than this many stripes are unprotected, even if the
	// array is busy (the paper found 20 effective).
	DirtyThreshold int
	// TargetMTTDL, when positive, enables the MTTDL_x policy: the
	// array continuously computes the disk-related MTTDL achieved so
	// far and reverts to RAID 5 behaviour whenever it falls below the
	// target (hours).
	TargetMTTDL float64
	// CoalesceAdjacent rebuilds runs of adjacent dirty stripes without
	// re-checking for idleness between them (an optimization the paper
	// mentions but did not model; off by default).
	CoalesceAdjacent bool
	// MarkGranularity is the §5 sub-stripe marking extension: M > 1
	// divides each stripe unit into M horizontal slices with one
	// marking bit each, so a small write dirties (and the rebuilder
	// re-reads) only the slices it touched. 0 or 1 selects whole-stripe
	// marking (the paper's base design). AFRAID mode only.
	MarkGranularity int
	// ConservativeStart is the §5 refinement: begin in RAID 5 mode and
	// switch into AFRAID behaviour only once the observed idle fraction
	// (conservativeIdleFrac, over at least one second) shows the
	// workload leaves room to rebuild parity.
	ConservativeStart bool
}

const conservativeIdleFrac = 0.25 // the idle fraction that ends a conservative start

// PLogConfig parameterizes the parity-logging baseline.
type PLogConfig struct {
	// LogBytes is the per-disk log region (reserved past the striped
	// space). Zero selects 2 MB.
	LogBytes int64
	// bufferBytes is the NVRAM staging buffer flushed sequentially to
	// the log region. Zero selects 64 KB.
	bufferBytes int64
}

func (p *PLogConfig) fill() {
	if p.LogBytes == 0 {
		p.LogBytes = 2 << 20
	}
	if p.bufferBytes == 0 {
		p.bufferBytes = 64 << 10
	}
}

// Config describes a simulated array: spin-synchronized disks, as the
// paper considers, admitting as many client requests at once as there
// are disks, the paper's choice. DefaultConfig builds one and fixes its
// mode.
type Config struct {
	Geometry layout.Geometry
	Disk     disk.Params
	mode     Mode
	Cache    cache.Config
	Policy   Policy
	// PLog parameterizes the PARITYLOG baseline (ignored otherwise).
	PLog PLogConfig
	// Fault optionally injects a disk failure (degraded-mode study).
	Fault Fault
}

// DefaultConfig returns the paper's experimental setup: five
// spin-synchronized HP C3325-class disks, 8 KB stripe units, 256 KB
// write-through staging and 256 KB read cache, CLOOK host queue.
func DefaultConfig(mode Mode) Config {
	p := disk.C3325()
	unit := int64(8 << 10)
	diskSize := p.CapacityBytes() / unit * unit
	cfg := Config{
		Geometry: layout.Geometry{Disks: 5, StripeUnit: unit, DiskSize: diskSize, Level: presets[mode].level},
		Disk:     p,
		mode:     mode,
		Cache:    cache.Config{BlockSize: unit, ReadBytes: 256 << 10, WriteBytes: 256 << 10},
	}
	if mode == PARITYLOG {
		// Reserve the per-disk log region past the striped space.
		cfg.PLog.fill()
		cfg.Geometry.DiskSize = (diskSize - cfg.PLog.LogBytes) / unit * unit
	}
	return cfg
}

// cacheHitTime is the controller time to satisfy a read from cache.
const cacheHitTime = 200 * time.Microsecond

// diskOp is one queued operation on a single disk.
type diskOp struct {
	write bool
	off   int64
	n     int64
	done  func()
}

// Array is the simulated controller. Create with New; drive with
// Submit; read results with Metrics after the engine drains.
type Array struct {
	eng   *sim.Engine
	cfg   Config
	geo   layout.Geometry
	disks []*disk.Disk
	busy  []bool
	queue [][]diskOp

	// parities and sync are the preset's m and n (Mode.Parities).
	parities, sync int

	limiter *iosched.Limiter
	cache   *cache.Controller
	marks   *nvram.Bitmap
	tracker idle.Tracker
	detect  idle.Detector

	// stripe concurrency control
	rebuildLocked map[int64][]func() // stripe -> waiters (non-nil while locked)
	activeWrites  map[int64]int      // stripe -> in-flight foreground write spans

	// AFRAID background state
	idleTimer  *sim.Timer
	idleGen    uint64 // invalidates stale idle-timer callbacks (see idleFired)
	rebuilding bool
	forced     bool
	fgArrived  bool
	cursor     int64
	reverted   bool
	revertedAt time.Duration
	gran       int              // marking slots per stripe (§5; default 1)
	conserving bool             // conservative-start observation phase
	busyTW     sim.TimeWeighted // busy-fraction tracker for conservative start

	// accounting
	lag          sim.TimeWeighted
	maxLag       float64
	ioTime       sim.DurationStats
	readTime     sim.DurationStats
	writeTime    sim.DurationStats
	reads        uint64
	writes       uint64
	rebuilt      uint64
	forcedBuilt  uint64
	episodes     uint64
	interrupted  uint64
	reverts      uint64
	revertedTime time.Duration
	submitted    uint64
	completed    uint64

	// degraded-mode state (injected failure + spare rebuild)
	deg degradedState

	// parity-logging baseline state and counters
	plog           []*plState
	stalls         uint64
	logFlushes     uint64
	reintegrations uint64

	// physical is the usable per-disk byte bound (striped space plus
	// any log region).
	physical int64
}

// New builds an array bound to the engine.
func New(eng *sim.Engine, cfg Config) (*Array, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Disk.Validate(); err != nil {
		return nil, err
	}
	physical := cfg.Geometry.DiskSize
	if cfg.mode == PARITYLOG {
		cfg.PLog.fill()
		physical += cfg.PLog.LogBytes
	}
	if physical > cfg.Disk.CapacityBytes() {
		return nil, fmt.Errorf("array: per-disk footprint %d exceeds disk capacity %d",
			physical, cfg.Disk.CapacityBytes())
	}
	if wantLevel := presets[cfg.mode].level; cfg.Geometry.Level != wantLevel {
		return nil, fmt.Errorf("array: %v mode requires a %v layout, have %v",
			cfg.mode, wantLevel, cfg.Geometry.Level)
	}
	var det idle.Detector
	switch {
	case cfg.Policy.AdaptiveIdle && cfg.Policy.PredictiveIdle:
		return nil, fmt.Errorf("array: AdaptiveIdle and PredictiveIdle are mutually exclusive")
	case cfg.Policy.AdaptiveIdle:
		base := cfg.Policy.IdleDelay
		if base <= 0 {
			base = idle.DefaultDelay
		}
		det = idle.NewAdaptive(base/8, base, base*8)
	case cfg.Policy.PredictiveIdle:
		det = idle.NewPredictor(cfg.Policy.IdleDelay)
	default:
		det = idle.NewTimer(cfg.Policy.IdleDelay)
	}
	gran := cfg.Policy.MarkGranularity
	if gran < 1 {
		gran = 1
	}
	if gran > 1 {
		if cfg.mode != AFRAID {
			return nil, fmt.Errorf("array: sub-stripe marking requires AFRAID mode, have %v", cfg.mode)
		}
		if cfg.Geometry.StripeUnit%int64(gran) != 0 {
			return nil, fmt.Errorf("array: marking granularity %d does not divide stripe unit %d",
				gran, cfg.Geometry.StripeUnit)
		}
	}
	a := &Array{
		eng:           eng,
		cfg:           cfg,
		geo:           cfg.Geometry,
		disks:         make([]*disk.Disk, cfg.Geometry.Disks),
		busy:          make([]bool, cfg.Geometry.Disks),
		queue:         make([][]diskOp, cfg.Geometry.Disks),
		limiter:       iosched.NewLimiter(iosched.NewCLOOK(), cfg.Geometry.Disks),
		cache:         cache.NewController(cfg.Cache),
		marks:         nvram.NewBitmap(cfg.Geometry.Stripes() * int64(gran)),
		detect:        det,
		rebuildLocked: make(map[int64][]func()),
		activeWrites:  make(map[int64]int),
		gran:          gran,
	}
	a.parities, a.sync = cfg.mode.Parities()
	if cfg.Policy.ConservativeStart && cfg.mode == AFRAID {
		// §5: begin conservatively in RAID 5 mode; switch to AFRAID
		// once the observed idle fraction shows headroom for rebuilds.
		a.reverted = true
		a.conserving = true
	}
	a.busyTW.Set(0, 0)
	a.physical = physical
	for i := range a.disks {
		a.disks[i] = disk.New(cfg.Disk)
	}
	a.lag.Set(0, 0)
	a.deg.failed = -1
	a.armFault()
	return a, nil
}

// Capacity returns the client-visible capacity.
func (a *Array) Capacity() int64 { return a.geo.Capacity() }

// issue enqueues op on disk d, serving it immediately if the disk is
// free.
func (a *Array) issue(d int, op diskOp) {
	if op.off < 0 || op.off+op.n > a.physical {
		panic(fmt.Sprintf("array: disk %d op [%d,%d) outside usable size %d", d, op.off, op.off+op.n, a.physical))
	}
	if a.busy[d] {
		a.queue[d] = append(a.queue[d], op)
		return
	}
	a.serve(d, op)
}

// serve runs op on disk d now. With immediate reporting enabled, a
// write's completion callback fires at buffered-completion time while
// the drive stays busy for the full mechanical service time.
func (a *Array) serve(d int, op diskOp) {
	a.busy[d] = true
	dop := disk.Op{Write: op.write, Offset: op.off, Length: op.n}
	st := a.disks[d].ServiceTime(a.eng.Now(), dop)
	if op.write && a.cfg.Disk.ImmediateReport {
		rt := a.disks[d].ReportTime(dop)
		if rt > st {
			rt = st
		}
		if op.done != nil {
			done := op.done
			a.eng.After(rt, done)
			op.done = nil
		}
	}
	a.eng.After(st, func() {
		a.busy[d] = false
		if len(a.queue[d]) > 0 {
			next := a.queue[d][0]
			a.queue[d] = a.queue[d][1:]
			a.serve(d, next)
		}
		if op.done != nil {
			op.done()
		}
	})
}

// Marking is slot-based: with MarkGranularity M, each stripe has M
// marking slots, one per horizontal slice of its stripe units (§5). The
// default M=1 makes slot == stripe, the paper's base design.

// slotLagBytes returns the unredundant data represented by one slot.
func (a *Array) slotLagBytes() float64 {
	return float64(a.geo.StripeDataBytes()) / float64(a.gran)
}

// stripeOfSlot maps a marking slot to its stripe.
func (a *Array) stripeOfSlot(slot int64) int64 { return slot / int64(a.gran) }

// markDirty records one slot as unredundant and updates lag accounting.
func (a *Array) markDirty(slot int64) {
	if a.marks.Mark(slot) {
		a.lag.Add(a.eng.Now(), a.slotLagBytes())
		if v := a.lag.Value(); v > a.maxLag {
			a.maxLag = v
		}
	}
}

// markSpanDirty marks every slot a span's extents overlap.
func (a *Array) markSpanDirty(sp layout.StripeSpan) {
	if a.gran == 1 {
		a.markDirty(sp.Stripe)
		return
	}
	slice := a.geo.StripeUnit / int64(a.gran)
	base := sp.Stripe * int64(a.gran)
	for _, e := range sp.Extents {
		s0 := e.UnitOff / slice
		s1 := (e.UnitOff + e.Len - 1) / slice
		for s := s0; s <= s1; s++ {
			a.markDirty(base + s)
		}
	}
}

// markClean records one slot's parity as consistent again.
func (a *Array) markClean(slot int64) {
	if a.marks.Unmark(slot) {
		a.lag.Add(a.eng.Now(), -a.slotLagBytes())
	}
}

// markCleanStripe clears every slot of a stripe (used when a full
// parity-unit write makes the whole stripe consistent).
func (a *Array) markCleanStripe(stripe int64) {
	base := stripe * int64(a.gran)
	for s := int64(0); s < int64(a.gran); s++ {
		a.markClean(base + s)
	}
}
