package tier

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"afraid/internal/core"
	"afraid/internal/fault"
	"afraid/internal/idle"
)

// This file is the tier's chaos harness: seeded episodes that run a
// random workload against a fully assembled hybrid — fault-wrapped
// front mirrors and back-tier members on one shared power line — and
// check the composed contract byte by byte. The power-line fuse tears
// exactly one device write, which lands with equal probability inside
// a mirror write, a promote, a demote or a back-tier stripe write, so
// every arrow of the migration state machine gets crashed mid-flight
// across enough seeds.
//
// The oracle is a byte-level shadow: bytes from acknowledged writes
// are determinate and must read back exactly; bytes under a failed
// write are indeterminate (old, new, or torn — all legal). The
// schedules never exceed the redundancy of either tier (at most one
// front copy fails, the back tier loses no members), so any
// ErrDataLoss touching a determinate byte is a contract violation,
// and any silent mismatch is the cardinal one.

// ChaosConfig selects one episode's failure schedule. The zero value
// plus a seed is a plain crash-free workload.
type ChaosConfig struct {
	Seed           int64
	BackDisks      int     // back-tier members (default 4)
	StripeUnit     int64   // back-tier stripe unit (default 512)
	StripesPerDisk int64   // back device size / StripeUnit (default 48)
	FrontPairs     int     // front mirror pairs (default 1)
	SlotsPerPair   int64   // extent slots per pair (default 6)
	ExtentSize     int64   // migration unit (default 4096)
	Ops            int     // workload operations (default 150)
	WriteFrac      float64 // fraction of ops that write (default 0.65)
	MaxIO          int64   // max bytes per op (default 3×ExtentSize)
	MaxDirtyBytes  int64   // pressure valve (default 2×ExtentSize)

	PowerCut      bool // cut power mid-workload and reopen through recovery
	DropTierMap   bool // the crash also destroys the tier's extent map
	FrontCopyFail bool // fail-stop exactly one copy of a front pair mid-run
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.BackDisks == 0 {
		c.BackDisks = 4
	}
	if c.StripeUnit == 0 {
		c.StripeUnit = 512
	}
	if c.StripesPerDisk == 0 {
		c.StripesPerDisk = 48
	}
	if c.FrontPairs == 0 {
		c.FrontPairs = 1
	}
	if c.SlotsPerPair == 0 {
		c.SlotsPerPair = 6
	}
	if c.ExtentSize == 0 {
		c.ExtentSize = 4096
	}
	if c.Ops == 0 {
		c.Ops = 150
	}
	if c.WriteFrac == 0 {
		c.WriteFrac = 0.65
	}
	if c.MaxIO == 0 {
		c.MaxIO = 3 * c.ExtentSize
	}
	if c.MaxDirtyBytes == 0 {
		c.MaxDirtyBytes = 2 * c.ExtentSize
	}
	if c.DropTierMap {
		// Map loss is only observable through a crash, and losing the
		// map and a mirror copy at once is a double failure outside the
		// contract (the failed-copy mask dies with the map).
		c.PowerCut = true
		c.FrontCopyFail = false
	}
	return c
}

// ChaosResult is one episode's outcome. Violations empty means the
// contract held.
type ChaosResult struct {
	Seed       int64
	Violations []string

	AckedWrites  int
	FailedWrites int
	Crashed      bool
	LostRanges   int // reported-loss reads touching only indeterminate bytes

	// Folded across the pre- and post-crash stores.
	Promotes, Demotes uint64
	FrontHits         uint64
	FullStripeWrites  uint64 // spans the back store wrote as full stripes (demotes, write-arounds)
	WriteArounds      uint64
	Resilvered        uint64
	MapRecovered      bool
	FrontCopyFailed   bool
}

func (r *ChaosResult) violate(format string, args ...any) {
	if len(r.Violations) < 20 {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// byteShadow is the oracle: the expected content plus a per-byte
// determinacy flag.
type byteShadow struct {
	data []byte
	det  []bool
}

func (s *byteShadow) write(off int64, p []byte) {
	copy(s.data[off:], p)
	for i := range p {
		s.det[off+int64(i)] = true
	}
}

func (s *byteShadow) clobber(off, n int64) {
	for i := off; i < off+n; i++ {
		s.det[i] = false
	}
}

func (s *byteShadow) anyDet(off, n int64) bool {
	for i := off; i < off+n; i++ {
		if s.det[i] {
			return true
		}
	}
	return false
}

type chaosEpisode struct {
	cfg ChaosConfig
	rng *rand.Rand
	res *ChaosResult

	line          *fault.PowerLine
	backBackings  []core.BlockDevice
	frontBackings []core.BlockDevice
	backDevs      []*fault.Device
	frontDevs     []*fault.Device
	backNV        *core.MemNVRAM
	nv            core.NVRAM

	back *core.Store
	st   *Store
	sh   *byteShadow
}

func (e *chaosEpisode) backOptions() core.Options {
	return core.Options{
		Mode:       core.Afraid,
		StripeUnit: e.cfg.StripeUnit,
		ScrubIdle:  3 * time.Millisecond,
	}
}

func (e *chaosEpisode) tierOptions() Options {
	return Options{
		ExtentSize:    e.cfg.ExtentSize,
		MaxDirtyBytes: e.cfg.MaxDirtyBytes,
		// An aggressive idle timer keeps the migrator demoting all
		// through the workload, so the fuse can land mid-migration.
		Idle: idle.NewTimer(2 * time.Millisecond),
	}
}

// wire (re)wraps both device sets with fault injectors on the shared
// power line. seed varies across the crash so post-recovery tearing
// differs from pre-crash tearing.
func (e *chaosEpisode) wire(seed int64) {
	e.backDevs = fault.Wrap(e.backBackings, seed)
	for _, d := range e.backDevs {
		d.OnLine(e.line)
	}
	e.frontDevs = fault.Wrap(e.frontBackings, seed+1)
	for _, d := range e.frontDevs {
		d.OnLine(e.line)
	}
}

func (e *chaosEpisode) open() error {
	back, err := core.Open(fault.Devices(e.backDevs), e.backNV, e.backOptions())
	if err != nil {
		return fmt.Errorf("tier chaos: opening back store: %w", err)
	}
	st, err := Open(back, fault.Devices(e.frontDevs), e.nv, e.tierOptions())
	if err != nil {
		back.Close()
		return fmt.Errorf("tier chaos: opening tier: %w", err)
	}
	e.back, e.st = back, st
	return nil
}

// foldStats accumulates the current store's counters into the result
// (the crash discards the in-memory ones).
func (e *chaosEpisode) foldStats() {
	ts := e.st.TierStats()
	e.res.Promotes += ts.Promotes
	e.res.Demotes += ts.Demotes
	e.res.FrontHits += ts.FrontReadHits + ts.FrontWriteHits
	e.res.WriteArounds += ts.WriteArounds
	e.res.Resilvered += ts.Resilvered
	e.res.MapRecovered = e.res.MapRecovered || ts.MapRecovered
	e.res.FullStripeWrites += e.back.Obs().Counters()["full_stripe_writes"]
	for _, d := range e.frontDevs {
		if d.Failed() {
			e.res.FrontCopyFailed = true
		}
	}
}

// RunChaosEpisode builds a hybrid, runs the seeded schedule against
// it, and verifies the composed loss contract. The error return is for
// harness-level breakage only; contract breaches land in
// Result.Violations.
func RunChaosEpisode(cfg ChaosConfig) (*ChaosResult, error) {
	cfg = cfg.withDefaults()
	e := &chaosEpisode{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		res:    &ChaosResult{Seed: cfg.Seed},
		line:   fault.NewPowerLine(),
		backNV: &core.MemNVRAM{},
		nv:     &core.MemNVRAM{},
	}
	for i := 0; i < cfg.BackDisks; i++ {
		e.backBackings = append(e.backBackings, core.NewMemDevice(cfg.StripesPerDisk*cfg.StripeUnit))
	}
	frontSize := cfg.SlotsPerPair * (cfg.ExtentSize + tagSize)
	for i := 0; i < 2*cfg.FrontPairs; i++ {
		e.frontBackings = append(e.frontBackings, core.NewMemDevice(frontSize))
	}
	e.wire(cfg.Seed)

	if cfg.FrontCopyFail {
		// Scope the fail-stop to exactly one copy of one pair; which
		// copy claims it depends on the interleaving, which is the
		// point.
		pair := e.rng.Intn(cfg.FrontPairs)
		fault.Mirror(
			fault.Rule{When: fault.After(uint64(1 + e.rng.Intn(cfg.Ops))), Do: fault.FailStop()},
			e.frontDevs[2*pair], e.frontDevs[2*pair+1],
		)
	}

	if err := e.open(); err != nil {
		return nil, err
	}
	capacity := e.st.Capacity()
	e.sh = &byteShadow{data: make([]byte, capacity), det: make([]bool, capacity)}

	if cfg.PowerCut {
		// Fuse on a device-write count: client writes fan out into
		// mirror, tag, promote and demote writes, so the torn write
		// lands at a uniformly random arrow of the state machine.
		e.line.CutAfter(1 + e.rng.Int63n(int64(cfg.Ops)*4))
	}

	cut, err := e.workload()
	if err != nil {
		return e.res, err
	}
	if cfg.PowerCut {
		if !cut {
			e.line.Cut() // fuse never blew: cut at workload end
		}
		if err := e.crashAndRecover(); err != nil {
			return e.res, err
		}
	}

	e.verify("post-recovery")

	// Flush drives everything down to the back tier and to a parity
	// point; afterwards the client view must be unchanged and the back
	// tier fully redundant.
	if err := e.st.Flush(); err != nil {
		if errors.Is(err, core.ErrDataLoss) {
			e.res.violate("flush reported loss (%v) though no schedule exceeds redundancy", err)
		} else {
			return e.res, fmt.Errorf("tier chaos: flush: %w", err)
		}
	}
	e.verify("post-flush")

	if bad, err := e.back.CheckParity(); err != nil {
		return e.res, fmt.Errorf("tier chaos: parity audit: %w", err)
	} else if len(bad) > 0 {
		e.res.violate("post-flush parity audit found %d inconsistent stripes (first %d)", len(bad), bad[0])
	}

	e.foldStats()
	e.st.Close()
	e.back.Close()
	return e.res, nil
}

// alignedFrac is the share of ops shaped like what the tiers move whole:
// one or two extents, extent-aligned, or one to three stripes of the
// back store, stripe-aligned.
const alignedFrac = 0.15

// workload runs seeded random I/O with live verification, maintaining
// the shadow. It returns cut=true when the power cut ended the run.
func (e *chaosEpisode) workload() (cut bool, err error) {
	capacity := e.st.Capacity()
	hotSpan := 4 * e.cfg.ExtentSize
	if hotSpan > capacity {
		hotSpan = capacity
	}
	for i := 0; i < e.cfg.Ops; i++ {
		if e.line.IsCut() {
			return true, nil
		}
		length := 1 + e.rng.Int63n(e.cfg.MaxIO)
		if length > capacity {
			length = capacity
		}
		off := e.rng.Int63n(capacity - length + 1)
		if e.rng.Float64() < 0.5 && length <= hotSpan {
			// Re-hit a hot prefix half the time so extents stay
			// resident long enough to take front write hits.
			off = e.rng.Int63n(hotSpan - length + 1)
		}
		if e.rng.Float64() < alignedFrac {
			grain, most := e.cfg.ExtentSize, int64(2)
			if e.rng.Intn(2) == 0 {
				grain, most = e.back.Geometry().StripeDataBytes(), 3
			}
			n := min(1+e.rng.Int63n(most), capacity/grain)
			length, off = n*grain, e.rng.Int63n(capacity/grain-n+1)*grain
		}

		if e.rng.Float64() < e.cfg.WriteFrac {
			p := make([]byte, length)
			e.rng.Read(p)
			if _, werr := e.st.WriteAt(p, off); werr != nil {
				e.res.FailedWrites++
				e.sh.clobber(off, length)
				if errors.Is(werr, fault.ErrPowerCut) {
					return true, nil
				}
				if errors.Is(werr, core.ErrDataLoss) {
					e.res.violate("live write [%d,%d) reported loss (%v) though no schedule exceeds redundancy", off, off+length, werr)
					continue
				}
				return false, fmt.Errorf("tier chaos: workload write [%d,%d): %w", off, off+length, werr)
			}
			e.res.AckedWrites++
			e.sh.write(off, p)
			continue
		}

		p := make([]byte, length)
		if _, rerr := e.st.ReadAt(p, off); rerr != nil {
			if errors.Is(rerr, fault.ErrPowerCut) {
				return true, nil
			}
			if errors.Is(rerr, core.ErrDataLoss) {
				if e.sh.anyDet(off, length) {
					e.res.violate("live read [%d,%d) lost (%v) over determinate bytes", off, off+length, rerr)
				} else {
					e.res.LostRanges++
				}
				continue
			}
			return false, fmt.Errorf("tier chaos: workload read [%d,%d): %w", off, off+length, rerr)
		}
		e.checkBytes("live read", off, p)
	}
	return false, nil
}

// checkBytes compares a successful read against the shadow.
func (e *chaosEpisode) checkBytes(label string, off int64, got []byte) {
	for i, b := range got {
		at := off + int64(i)
		if e.sh.det[at] && e.sh.data[at] != b {
			e.res.violate("%s: byte %d is %02x, want %02x (silent divergence)", label, at, b, e.sh.data[at])
			return
		}
	}
}

// crashAndRecover abandons both stores mid-flight and reassembles the
// hybrid from the surviving media — the machine rebooting.
func (e *chaosEpisode) crashAndRecover() error {
	e.foldStats()
	frontDead := make([]bool, len(e.frontDevs))
	for i, d := range e.frontDevs {
		frontDead[i] = d.Failed()
	}
	// The crash kills the process: no Close, no Flush. The migrator
	// goroutine is stopped only because the test process itself lives
	// on.
	e.st.closed.Store(true)
	if e.st.mig != nil {
		e.st.mig.stop()
	}
	e.back.Close() // wrappers skip closing backings while the line is cut
	e.res.Crashed = true

	e.line.Restore()
	e.wire(e.cfg.Seed + 100)
	// A front copy that fail-stopped before the crash missed its
	// mirror's degraded writes; its media is stale. Keep it down so
	// recovery exercises the persisted failed-copy mask.
	for i, dead := range frontDead {
		if dead {
			e.frontDevs[i].Fail()
		}
	}
	if e.cfg.DropTierMap {
		e.nv = fault.NewLostNVRAM()
	}
	return e.open()
}

// verify reads the whole client address space extent by extent and
// checks every determinate byte. Reported loss over indeterminate
// bytes is tolerated; over determinate bytes it is a violation, and a
// mismatch is silent divergence — the one thing the design must never
// produce.
func (e *chaosEpisode) verify(label string) {
	capacity := e.st.Capacity()
	buf := make([]byte, e.cfg.ExtentSize)
	for off := int64(0); off < capacity; off += e.cfg.ExtentSize {
		n := e.cfg.ExtentSize
		if off+n > capacity {
			n = capacity - off
		}
		if _, err := e.st.ReadAt(buf[:n], off); err != nil {
			if errors.Is(err, core.ErrDataLoss) {
				if e.sh.anyDet(off, n) {
					e.res.violate("%s read [%d,%d) lost (%v) over determinate bytes", label, off, off+n, err)
				} else {
					e.res.LostRanges++
				}
				continue
			}
			e.res.violate("%s read [%d,%d) failed: %v", label, off, off+n, err)
			continue
		}
		e.checkBytes(label, off, buf[:n])
	}
}
