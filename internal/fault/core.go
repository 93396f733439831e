package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"afraid/internal/core"
	"afraid/internal/layout"
	"afraid/internal/obs"
)

// Config describes the core stack of one episode: an array build and a
// fault schedule (transient member faults, silent bit flips, a power cut
// with optional marking-memory loss, post-recovery disk failures, and
// repair, with optionally a power cut inside it).
type Config struct {
	Mode           core.Mode
	Disks          int
	StripeUnit     int64
	StripesPerDisk int64 // device size = StripesPerDisk * StripeUnit
	Ops            int   // workload operations
	WriteFrac      float64
	MaxIO          int64 // max bytes per workload op
	ScrubIdle      time.Duration
	DirtyThreshold int
	MixedSync      bool // give each stripe a seeded sync count, and draw them again before the first failure

	Transients int  // member disks hit by an injected transient fault (capped at the redundancy)
	PowerCut   bool // cut power mid-workload and restart through recovery
	DropNVRAM  bool // the crash also destroys the marking memory (paper §4)
	DiskFails  int  // disks to fail after recovery (capped at the redundancy)
	Repair     bool // repair failed disks and audit the damage report
	RepairCut  bool // cut power inside each repair's sweep, reboot, and resume it

	Checksums bool // open the store with Options.Checksums
	FlipBits  int  // write-path silent bit flips to arm (one rule each)
	ReadRot   int  // read-path bit-decay flips to arm (one rule each)
}

// storeOptions maps the config onto core.Options (shared by the initial
// open and the post-crash reopen).
func (c Config) storeOptions() core.Options {
	return core.Options{
		Mode:           c.Mode,
		StripeUnit:     c.StripeUnit,
		ScrubIdle:      c.ScrubIdle,
		DirtyThreshold: c.DirtyThreshold,
		Checksums:      c.Checksums,
	}
}

func (c Config) withDefaults() Config {
	if c.Disks == 0 {
		c.Disks = 5
	}
	if c.StripeUnit == 0 {
		c.StripeUnit = 512
	}
	if c.StripesPerDisk == 0 {
		c.StripesPerDisk = 48
	}
	if c.Ops == 0 {
		c.Ops = 150
	}
	if c.WriteFrac == 0 {
		c.WriteFrac = 0.65
	}
	if c.MaxIO == 0 {
		c.MaxIO = 3 * c.StripeUnit
	}
	if c.ScrubIdle == 0 {
		c.ScrubIdle = 3 * time.Millisecond
	}
	return c
}

// Core is the Stack over a core.Store on fault-wrapped members sharing
// one power line. A tier assembles its back store through it (Assemble,
// Reopen) and a composed stack arms faults inside a node with its steps.
type Core struct {
	cfg      Config
	Line     *PowerLine         // set before Assemble to share a machine's power with other devices
	Backings []core.BlockDevice // the media under the injectors
	devs     []*Device
	nv       core.NVRAM
	st       *core.Store
	geo      layout.Geometry

	victims  []int // disks with an armed transient rule
	repaired int
	events   coreEvents
}

// coreEvents is what happened to this incarnation of the store that it
// does not count itself: the "fault." keys of StatMap.
type coreEvents struct{ FlipBits, FailedMembers, RepairCuts uint64 }

// NewCore returns the core stack cfg describes, unassembled.
func NewCore(cfg Config) *Core { return &Core{cfg: cfg.withDefaults()} }

// Plan is the core schedule: workload, power cycle, disk failures with a
// degraded burst, repair.
func (c *Core) Plan() Plan {
	return Plan{WriteFrac: c.cfg.WriteFrac, MaxIO: c.cfg.MaxIO, Steps: []Step{
		Workload(c.cfg.Ops), c.PowerCycle, Sweep("post-recovery"), c.FailDisks, c.RepairDisks,
	}}
}

// Store returns the current incarnation of the store.
func (c *Core) Store() *core.Store { return c.st }

func (c *Core) Open(e *Episode) error {
	if err := c.Assemble(e.Seed); err != nil {
		return err
	}
	c.Arm(e)
	return nil
}

// Assemble builds fresh media and opens the store over them. It draws
// nothing, so a stack on top keeps its own draw order.
func (c *Core) Assemble(seed int64) error {
	if c.Line == nil {
		c.Line = NewPowerLine()
	}
	c.Backings = make([]core.BlockDevice, c.cfg.Disks)
	for i := range c.Backings {
		c.Backings[i] = core.NewMemDevice(c.cfg.StripesPerDisk * c.cfg.StripeUnit)
	}
	c.nv = &core.MemNVRAM{}
	return c.open(seed, nil)
}

// open wraps the media in fresh injectors on the line and opens the
// store over them: the first assembly and every reboot. What the last
// injectors knew the faults did to the media stays with the media.
func (c *Core) open(seed int64, dead []int) error {
	old := c.devs
	c.devs = Wrap(c.Backings, seed)
	for i, d := range c.devs {
		d.OnLine(c.Line)
		if old != nil {
			d.damaged = old[i].damaged
		}
	}
	// A member the last incarnation had declared dead missed its degraded
	// writes; its contents are stale and must not resurrect.
	for _, i := range dead {
		c.devs[i].Fail()
	}
	st, err := core.Open(Devices(c.devs), c.nv, c.cfg.storeOptions())
	if err != nil {
		return err
	}
	c.st, c.geo = st, st.Geometry()
	if c.cfg.Checksums {
		for _, d := range c.devs {
			d.SetChecksumRegion(c.geo.DiskSize)
		}
	}
	return c.drawSync(seed)
}

// drawSync gives each stripe a sync count in [0, m] when the schedule
// mixes them, from an rng of its own so that no other draw of the
// episode moves.
func (c *Core) drawSync(seed int64) error {
	if !c.cfg.MixedSync {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5c))
	sdb := c.geo.StripeDataBytes()
	for s := int64(0); s < c.geo.Stripes(); s++ {
		if err := c.st.SetSync(s*sdb, sdb, rng.Intn(c.geo.Level.ParityUnits()+1)); err != nil {
			return err
		}
	}
	return nil
}

// Reopen is the machine rebooting after a cut: the store the cut left
// is abandoned, power returns, and the store opens again from what the
// media (and the marking memory, unless the schedule drops it) hold.
// Re-wrapping discards any rule still armed.
func (c *Core) Reopen(seed int64) error { return c.reboot(seed, c.cfg.DropNVRAM, -1) }

// reboot is Reopen, dropping the marking memory or not, with the member
// under repair in slot repairing (-1 for none): its replacement answers
// again, and the store finds it stale where the sweep had not reached.
func (c *Core) reboot(seed int64, dropNVRAM bool, repairing int) error {
	dead := slices.DeleteFunc(c.st.DeadDisks(), func(i int) bool { return i == repairing })
	// Closing abandons the store; it is no shutdown. The injectors skip
	// closing their backings while the line is cut, and the image Close
	// stores never lands: nothing runs on a machine without power.
	img, err := c.nv.Load()
	c.st.Close()
	if err == nil {
		err = c.nv.Store(img)
	}
	if err != nil {
		return fmt.Errorf("fault: marking memory across the cut: %w", err)
	}
	c.Line.Restore()
	c.victims, c.events = nil, coreEvents{}
	if dropNVRAM {
		c.nv = NewLostNVRAM()
	}
	if err := c.open(seed, dead); err != nil {
		return fmt.Errorf("fault: reopen after crash: %w", err)
	}
	return nil
}

// Arm is the fault step that arms the mid-workload schedule: transient
// faults (which the store absorbs as fail-stop) on distinct victims,
// capped at the redundancy so the array is never asked to survive more
// than it promises; seeded one-shot bit flips on the write path and as
// read-time media decay; and the power fuse.
func (c *Core) Arm(e *Episode) {
	cfg := c.cfg
	for _, v := range e.Rng.Perm(cfg.Disks)[:min(cfg.Transients, c.geo.Level.ParityUnits())] {
		c.devs[v].AddRule(Rule{When: After(uint64(e.Rng.Intn(cfg.Ops + 1))), Do: Transient(nil), Max: 1})
		c.events.FailedMembers++
		c.victims = append(c.victims, v)
	}
	for k := 0; k < cfg.FlipBits; k++ {
		c.devs[e.Rng.Intn(cfg.Disks)].AddRule(Rule{
			When: All(Writes(), After(uint64(e.Rng.Intn(cfg.Ops*2+1)))), Do: FlipBit(), Max: 1,
		})
	}
	for k := 0; k < cfg.ReadRot; k++ {
		c.devs[e.Rng.Intn(cfg.Disks)].AddRule(Rule{
			When: All(Reads(), After(uint64(e.Rng.Intn(cfg.Ops*2+1)))), Do: FlipBit(), Max: 1,
		})
	}
	if cfg.PowerCut {
		// Device writes outnumber workload ops; a fuse within a few
		// multiples of Ops usually blows mid-workload, and PowerCycle
		// forces one that survives it.
		c.Line.CutAfter(1 + e.Rng.Int63n(int64(cfg.Ops)*3))
	}
}

// PowerCycle is the fault step after the workload: the power cut and
// the reboot through recovery, when the schedule has one, and the
// sample of what is unredundant either way.
func (c *Core) PowerCycle(e *Episode) error {
	if !c.cfg.PowerCut {
		e.Sample()
		return nil
	}
	c.Line.Cut()
	return e.PowerCycle(func() error { return c.Reopen(e.Seed + 1) })
}

// FailDisks fails up to cfg.DiskFails more members through the device
// layer, letting foreground I/O trip the store's degraded-mode
// absorption, then runs a short degraded burst: acknowledged writes must
// survive with members down.
// Mixed sync counts are drawn again first, while the workload's marks
// still stand: a stripe whose count changes under its mark must vouch for
// no parity when a member goes.
func (c *Core) FailDisks(e *Episode) error {
	if c.cfg.DiskFails > 0 {
		if err := c.drawSync(e.Seed + 2); err != nil {
			return err
		}
	}
	failed := 0
	for failed < c.cfg.DiskFails {
		dead := c.st.DeadDisks()
		// An armed transient that hasn't tripped yet is a pending failure
		// the store can't see; scheduling another member on top of it
		// would exceed the redundancy the array promises.
		pending := 0
		for _, v := range c.victims {
			if !slices.Contains(dead, v) && !c.devs[v].Failed() {
				pending++
			}
		}
		if len(dead)+pending >= c.geo.Level.ParityUnits() { // one failure absorbed per parity
			break
		}
		var alive []int
		for i, d := range c.devs {
			if !slices.Contains(dead, i) && !d.Failed() {
				alive = append(alive, i)
			}
		}
		if len(alive) == 0 {
			break
		}
		e.Sample()
		victim := alive[e.Rng.Intn(len(alive))]
		c.devs[victim].Fail()
		// Touch every stripe so the failure is absorbed.
		buf := make([]byte, c.geo.StripeDataBytes())
		for stp := int64(0); stp < c.geo.Stripes(); stp++ {
			c.st.ReadAt(buf, stp*int64(len(buf)))
		}
		if !slices.Contains(c.st.DeadDisks(), victim) {
			if err := c.st.FailDisk(victim); err != nil {
				return fmt.Errorf("fault: fail disk %d: %w", victim, err)
			}
		}
		c.events.FailedMembers++
		failed++
	}
	if failed > 0 && c.cfg.Ops >= 4 {
		e.Workload(c.cfg.Ops / 4)
	}
	return nil
}

// RepairDisks repairs every dead member onto a fresh device and hands
// the damage report to the oracle: every lost range must lie in a stripe
// that was unredundant at a failure point (or under an unacknowledged
// write) — the paper's bounded-exposure contract. A failed repair's
// partial report is handed over before its error: what it salvaged reads
// back zeroed all the same. With RepairCut the power fails inside each
// sweep; the machine reboots with the replacement in its slot and the
// marking memory as the cut left it, and the repair resumes onto it.
func (c *Core) RepairDisks(e *Episode) error {
	if !c.cfg.Repair {
		return nil
	}
	for _, i := range c.st.DeadDisks() {
		e.Sample()
		medium := core.NewMemDevice(c.cfg.StripesPerDisk * c.cfg.StripeUnit)
		rep := New(medium, e.Seed+100+int64(i)).OnLine(c.Line)
		if c.cfg.Checksums {
			rep.SetChecksumRegion(c.geo.DiskSize)
		}
		cut := c.cfg.RepairCut
		if cut {
			// The sweep writes the replacement at least once per stripe.
			c.Line.CutAfter(1 + e.Rng.Int63n(c.geo.Stripes()))
		}
		report, err := c.st.RepairDisk(i, rep)
		e.Lost(fmt.Sprintf("repair of disk %d", i), c.losses(report))
		c.events.FlipBits += c.devs[i].Stats().FlipBits // the replaced injector's count leaves with it
		c.devs[i], c.Backings[i] = rep, medium
		if cut && c.Line.IsCut() {
			c.events.RepairCuts++
			if err := e.PowerCycle(func() error { return c.reboot(e.Seed+3, false, i) }); err != nil {
				return err
			}
			report, err = c.st.RepairDisk(i, c.devs[i])
			e.Lost(fmt.Sprintf("resumed repair of disk %d", i), c.losses(report))
		} else if cut {
			c.Line.Restore() // disarm a fuse the sweep did not reach
		}
		if err != nil {
			return fmt.Errorf("fault: repair disk %d: %w", i, err)
		}
		c.repaired++
	}
	return nil
}

// losses is a damage report as the oracle takes it: ranges read back zeroed.
func (c *Core) losses(report core.DamageReport) []Loss {
	out := make([]Loss, len(report.Lost))
	for k, lost := range report.Lost {
		out[k] = Loss{Off: lost.Offset, Len: lost.Length, Zeroed: true}
	}
	return out
}

func (c *Core) degraded() bool { return len(c.st.DeadDisks()) > 0 }

// Exposed lists the stripes whose failed units outnumber their fresh
// parities (the store's own count): units on dead members, and units — or
// their checksum slots — that an injected fault damaged (Device.Damaged).
func (c *Core) Exposed() []int64 {
	dead := c.st.DeadDisks()
	var out []int64
	for s := int64(0); s < c.geo.Stripes(); s++ {
		failed := len(dead)
		for i, d := range c.devs {
			if !slices.Contains(dead, i) && (d.Damaged(c.geo.DiskOffset(s), c.geo.StripeUnit) ||
				d.Damaged(c.geo.ChecksumOff(s), layout.ChecksumSlotSize)) {
				failed++
			}
		}
		if failed > c.st.FreshParities(s) {
			out = append(out, s)
		}
	}
	return out
}

// Failures counts members absorbed or repaired, bit flips fired, and
// corrupt units the store found. A detection is a failure point too: an
// AFRAID write marks a stripe without reading its other units, which
// exposes a flip that landed while the stripe was redundant.
func (c *Core) Failures() int {
	return len(c.st.DeadDisks()) + c.repaired + int(c.flips()+c.st.Stats().ChecksumDetected)
}

// flips counts the bit flips fired on this incarnation's members.
func (c *Core) flips() uint64 {
	n := c.events.FlipBits
	for _, d := range c.devs {
		n += d.Stats().FlipBits
	}
	return n
}

func (c *Core) Close()                                   { c.st.Close() }
func (c *Core) ReadAt(p []byte, off int64) (int, error)  { return c.st.ReadAt(p, off) }
func (c *Core) WriteAt(p []byte, off int64) (int, error) { return c.st.WriteAt(p, off) }
func (c *Core) Capacity() int64                          { return c.st.Capacity() }
func (c *Core) Grains() []Grain                          { return []Grain{{c.geo.StripeDataBytes(), 3}} }
func (c *Core) LossGrain() int64                         { return c.geo.StripeDataBytes() }
func (c *Core) PowerLost() bool                          { return c.Line.IsCut() }

// Flush and Audit apply to a whole array: with a member down — or one a
// latent transient takes down under them — there is no redundancy to
// bring up to date or to check, and the final sweep still runs.
func (c *Core) Flush() error {
	if c.degraded() {
		return nil
	}
	if err := c.st.Flush(); err != nil && !c.degraded() {
		return err
	}
	return nil
}

func (c *Core) Audit() ([]int64, error) {
	if c.degraded() {
		return nil, nil
	}
	bad, err := c.st.CheckParity()
	if err != nil && c.degraded() {
		return nil, nil
	}
	return bad, err
}

// StatMap is the store's snapshot plus, under "fault.", what the
// injectors and the schedule did to it.
func (c *Core) StatMap() map[string]int64 {
	m := c.st.StatMap()
	ev := c.events
	ev.FlipBits = c.flips()
	obs.Flatten(m, "fault.", nil, ev)
	return m
}

func (c *Core) Classify(err error) Kind {
	switch {
	case errors.Is(err, ErrPowerCut):
		return KindPowerCut
	case errors.Is(err, core.ErrDataLoss), errors.Is(err, core.ErrTooManyFailures):
		return KindLoss
	}
	return KindFatal
}
