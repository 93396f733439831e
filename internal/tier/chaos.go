package tier

import (
	"errors"
	"fmt"
	"time"

	"afraid/internal/core"
	"afraid/internal/fault"
	"afraid/internal/idle"
	"afraid/internal/obs"
)

// This file is the tier's adapter to the one chaos runner (fault.Run):
// a fully assembled hybrid — fault-wrapped front mirrors, and a back
// store assembled by the core adapter, all on one power line. The
// line's fuse tears exactly one device write, which lands with equal
// probability inside a mirror write, a promote, a demote or a back-tier
// stripe write, so every arrow of the migration state machine gets
// crashed mid-flight across enough seeds.
//
// The schedules never exceed the redundancy of either tier (at most one
// front copy fails, the back tier loses no members), so the stack
// declares no loss grain: under the shared oracle any reported loss
// touching an acknowledged byte is a violation, and any silent mismatch
// is the cardinal one.

// ChaosConfig selects one episode's build and failure schedule. The
// zero value is a plain crash-free workload.
type ChaosConfig struct {
	// Back is the back store's build (default: 4-disk AFRAID, 512-byte
	// units, 48 stripes per disk) and whatever a composed schedule arms
	// inside it.
	Back          fault.Config
	FrontPairs    int     // front mirror pairs (default 1)
	SlotsPerPair  int64   // extent slots per pair (default 6)
	ExtentSize    int64   // migration unit (default 4096)
	Ops           int     // workload operations (default 150)
	WriteFrac     float64 // fraction of ops that write (default 0.65)
	MaxIO         int64   // max bytes per op (default 3×ExtentSize)
	MaxDirtyBytes int64   // pressure valve (default 2×ExtentSize)

	PowerCut      bool // cut power mid-workload and reopen through recovery
	DropTierMap   bool // the crash also destroys the tier's extent map
	FrontCopyFail bool // fail-stop exactly one copy of a front pair mid-run
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Back.Disks == 0 {
		c.Back.Disks = 4
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

// ChaosStack is the fault.Stack over an assembled hybrid.
type ChaosStack struct {
	cfg  ChaosConfig
	Back *fault.Core // the back store's stack: its media, its line, its fault steps

	FrontBackings []core.BlockDevice // the mirror media under the injectors
	frontDevs     []*fault.Device
	refailed      int // stale copies recovery keeps down: not this incarnation's failures
	nv            core.NVRAM
	st            *Store
}

// NewChaosStack returns the hybrid cfg describes, unassembled.
func NewChaosStack(cfg ChaosConfig) *ChaosStack {
	cfg = cfg.withDefaults()
	return &ChaosStack{cfg: cfg, Back: fault.NewCore(cfg.Back), nv: &core.MemNVRAM{}}
}

// Plan is the tier schedule: workload (over a hot prefix, so extents
// stay resident long enough to take front hits), then the power cycle.
func (s *ChaosStack) Plan() fault.Plan {
	return fault.Plan{WriteFrac: s.cfg.WriteFrac, MaxIO: s.cfg.MaxIO, HotSpan: 4 * s.cfg.ExtentSize, Steps: []fault.Step{
		fault.Workload(s.cfg.Ops), s.PowerCycle, fault.Sweep("post-recovery"),
	}}
}

// Store returns the current incarnation of the hybrid.
func (s *ChaosStack) Store() *Store { return s.st }

func (s *ChaosStack) Open(e *fault.Episode) error {
	if err := s.Back.Assemble(e.Seed); err != nil {
		return fmt.Errorf("tier chaos: opening back store: %w", err)
	}
	for i := 0; i < 2*s.cfg.FrontPairs; i++ {
		s.FrontBackings = append(s.FrontBackings, core.NewMemDevice(s.cfg.SlotsPerPair*(s.cfg.ExtentSize+tagSize)))
	}
	s.wireFront(e.Seed+1, nil)
	if s.cfg.FrontCopyFail {
		// Scope the fail-stop to exactly one copy of one pair; which
		// copy claims it depends on the interleaving, which is the
		// point.
		pair := e.Rng.Intn(s.cfg.FrontPairs)
		fault.Mirror(
			fault.Rule{When: fault.After(uint64(1 + e.Rng.Intn(s.cfg.Ops))), Do: fault.FailStop()},
			s.frontDevs[2*pair], s.frontDevs[2*pair+1],
		)
	}
	if err := s.open(); err != nil {
		return err
	}
	if s.cfg.PowerCut {
		// Fuse on a device-write count: client writes fan out into
		// mirror, tag, promote and demote writes, so the torn write
		// lands at a uniformly random arrow of the state machine.
		s.Back.Line.CutAfter(1 + e.Rng.Int63n(int64(s.cfg.Ops)*4))
	}
	return nil
}

// wireFront (re)wraps the mirror media with injectors on the shared
// power line, keeping down the copies in dead.
func (s *ChaosStack) wireFront(seed int64, dead []bool) {
	s.frontDevs = fault.Wrap(s.FrontBackings, seed)
	s.refailed = 0
	for i, d := range s.frontDevs {
		d.OnLine(s.Back.Line)
		if dead != nil && dead[i] {
			d.Fail()
			s.refailed++
		}
	}
}

func (s *ChaosStack) open() error {
	st, err := Open(s.Back.Store(), fault.Devices(s.frontDevs), s.nv, Options{
		ExtentSize:    s.cfg.ExtentSize,
		MaxDirtyBytes: s.cfg.MaxDirtyBytes,
		// An aggressive idle timer keeps the migrator demoting all
		// through the workload, so the fuse can land mid-migration.
		Idle: idle.NewTimer(2 * time.Millisecond),
	})
	if err != nil {
		return fmt.Errorf("tier chaos: opening tier: %w", err)
	}
	s.st = st
	return nil
}

// PowerCycle is the fault step after the workload: the power cut, when
// the schedule has one, and the reboot.
func (s *ChaosStack) PowerCycle(e *fault.Episode) error {
	if !s.cfg.PowerCut {
		return nil
	}
	s.Back.Line.Cut() // a fuse that outlived the workload is forced
	return e.PowerCycle(func() error { return s.Reboot(e.Seed) })
}

// Reboot abandons both stores mid-flight and reassembles the hybrid
// from the surviving media — the machine coming back after a cut.
func (s *ChaosStack) Reboot(seed int64) error {
	dead := make([]bool, len(s.frontDevs))
	for i, d := range s.frontDevs {
		dead[i] = d.Failed()
	}
	// The crash kills the process: no Close, no Flush. The migrator
	// goroutine is stopped only because the harness process lives on.
	s.st.closed.Store(true)
	if s.st.mig != nil {
		s.st.mig.stop()
	}
	if err := s.Back.Reopen(seed + 100); err != nil {
		return err
	}
	// A front copy that fail-stopped before the crash missed its
	// mirror's degraded writes; its media is stale. Keep it down so
	// recovery exercises the persisted failed-copy mask.
	s.wireFront(seed+101, dead)
	if s.cfg.DropTierMap {
		s.nv = fault.NewLostNVRAM()
	}
	return s.open()
}

func (s *ChaosStack) Close() {
	s.st.Close()
	s.Back.Close()
}

func (s *ChaosStack) ReadAt(p []byte, off int64) (int, error)  { return s.st.ReadAt(p, off) }
func (s *ChaosStack) WriteAt(p []byte, off int64) (int, error) { return s.st.WriteAt(p, off) }
func (s *ChaosStack) Capacity() int64                          { return s.st.Capacity() }
func (s *ChaosStack) Flush() error                             { return s.st.Flush() }

// Audit: once Flush has driven everything down to the back tier and to
// a parity point, the back tier must be fully redundant.
func (s *ChaosStack) Audit() ([]int64, error) { return s.Back.Store().CheckParity() }

// Grains are what the tiers move whole: stripes of the back store, and
// extents.
func (s *ChaosStack) Grains() []fault.Grain {
	return []fault.Grain{{Bytes: s.Back.Store().Geometry().StripeDataBytes(), Most: 3}, {Bytes: s.cfg.ExtentSize, Most: 2}}
}

func (s *ChaosStack) LossGrain() int64 { return 0 }
func (s *ChaosStack) Exposed() []int64 { return nil }
func (s *ChaosStack) Failures() int    { return 0 }
func (s *ChaosStack) PowerLost() bool  { return s.Back.PowerLost() }

func (s *ChaosStack) Classify(err error) fault.Kind {
	switch {
	case errors.Is(err, fault.ErrPowerCut):
		return fault.KindPowerCut
	case errors.Is(err, core.ErrDataLoss):
		return fault.KindLoss
	}
	return fault.KindFatal
}

// StatMap is the back stack's map (core.*, fault.*) plus the tier's own
// keys; fault.failed_members gains the front copies that fail-stopped in
// this incarnation.
func (s *ChaosStack) StatMap() map[string]int64 {
	m := s.Back.StatMap()
	obs.Flatten(m, "tier.", s.st.ob.reg, s.st.TierStats())
	for _, d := range s.frontDevs {
		if d.Failed() {
			m["fault.failed_members"]++
		}
	}
	m["fault.failed_members"] -= int64(s.refailed)
	return m
}
