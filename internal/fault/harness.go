package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"afraid/internal/core"
	"afraid/internal/layout"
)

// Config describes one chaos episode: an array build, a seeded
// workload, and a fault schedule (transient member faults, a power cut
// with optional marking-memory loss, post-recovery disk failures, and
// repair). Everything is derived from Seed, so a violating episode is
// reproducible from its number alone.
type Config struct {
	Seed              int64
	Mode              core.Mode
	Disks             int
	StripeUnit        int64
	StripesPerDisk    int64 // device size = StripesPerDisk * StripeUnit
	Ops               int   // workload operations
	WriteFrac         float64
	MaxIO             int64 // max bytes per workload op
	ScrubIdle         time.Duration
	DirtyThreshold    int
	DeferBothParities bool

	Transients int  // member disks hit by an injected transient fault (capped at the redundancy)
	PowerCut   bool // cut power mid-workload and restart through recovery
	DropNVRAM  bool // the crash also destroys the marking memory (paper §4)
	DiskFails  int  // disks to fail after recovery (capped at the redundancy)
	Repair     bool // repair failed disks and audit the damage report

	Checksums bool // open the store with Options.Checksums
	FlipBits  int  // write-path silent bit flips to arm (one rule each)
	ReadRot   int  // read-path bit-decay flips to arm (one rule each)
}

// storeOptions maps the episode config onto core.Options (shared by the
// initial open and the post-crash reopen).
func (c Config) storeOptions() core.Options {
	return core.Options{
		Mode:              c.Mode,
		StripeUnit:        c.StripeUnit,
		ScrubIdle:         c.ScrubIdle,
		DirtyThreshold:    c.DirtyThreshold,
		DeferBothParities: c.DeferBothParities,
		Checksums:         c.Checksums,
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

// maxDead is how many simultaneous member failures the mode absorbs.
func maxDead(m core.Mode) int {
	switch m {
	case core.Raid6, core.Afraid6:
		return 2
	case core.Raid0:
		return 0
	default:
		return 1
	}
}

func deferred(m core.Mode) bool { return m == core.Afraid || m == core.Afraid6 }

// Result is one episode's outcome. Violations are breaches of the
// AFRAID contract; everything else is accounting.
type Result struct {
	Seed       int64
	Mode       core.Mode
	Violations []string

	AckedWrites  int // writes the store acknowledged
	FailedWrites int // writes that errored (their ranges become indeterminate)
	// FullStripeWrites counts the spans the store wrote as full stripes
	// (its full_stripe_writes counter): zero over a whole run means the
	// aligned op class exercised nothing.
	FullStripeWrites uint64

	Crashed      bool  // a power cut ended the workload
	NVRAMRebuild bool  // recovery fell back to the full-array rebuild
	Degraded     bool  // the store absorbed a member failure mid-workload
	FailedDisks  []int // disks failed by the schedule (pre- and post-crash)

	DirtyAtCrash     int    // unredundant stripes when the failure landed
	HoleStripes      int    // stripes covered by unacknowledged writes
	LostBytes        int64  // bytes reported lost by repair
	DamagedStripes   int    // stripes in the damage report
	RecoveredStripes uint64 // stripes reconstructed exactly by repair

	FlipBits          int    // silent bit flips the device layer actually injected
	ChecksumsDetected uint64 // corrupt units the store caught (Options.Checksums)
	ChecksumsRepaired uint64 // corrupt units rewritten from redundancy
	ChecksumsLost     uint64 // corrupt units with no redundancy left
}

func (r *Result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// episode carries the mutable state of one RunEpisode call.
type episode struct {
	cfg      Config
	rng      *rand.Rand
	res      *Result
	line     *PowerLine
	backings []core.BlockDevice
	devs     []*Device
	nv       core.NVRAM
	st       *core.Store
	geo      layout.Geometry
	sh       *shadow

	dirtyUnion map[int64]bool // union of DirtyList samples at failure points
	damaged    map[int64]bool // stripes in repair damage reports
	victims    []int          // disks with an armed transient rule
}

// csumArmed reports whether the schedule injects silent corruption.
// With flips armed, any *reported* loss is legal — two flips can land
// in one synchronous-RAID5 stripe, a genuine double failure — but
// silent divergence never is: checkLiveRead and verify still compare
// every successful read byte-exact.
func (e *episode) csumArmed() bool { return e.cfg.FlipBits > 0 || e.cfg.ReadRot > 0 }

// allowedLoss reports whether a stripe may legally lose data: it was
// marked unredundant at a failure point, was covered by a write the
// store never acknowledged, was already reported damaged, or the
// schedule injects corruption (reported loss is then always legal —
// only silent corruption violates).
func (e *episode) allowedLoss(stripe int64) bool {
	return e.dirtyUnion[stripe] || e.sh.holes[stripe] || e.damaged[stripe] || e.csumArmed()
}

// sampleDirty folds the store's current unredundant set into the union.
// Called at every failure point: recovery open, before each disk
// failure, and before each repair.
func (e *episode) sampleDirty() {
	for _, st := range e.st.DirtyList() {
		e.dirtyUnion[st] = true
	}
}

// stripeReadsLost reports whether reading the stripe's data back
// returns ErrDataLoss — i.e. the store detected corruption there and
// refuses to serve it rather than serving it silently.
func (e *episode) stripeReadsLost(stripe int64) bool {
	buf := make([]byte, e.geo.StripeDataBytes())
	_, err := e.st.ReadAt(buf, stripe*e.geo.StripeDataBytes())
	return errors.Is(err, core.ErrDataLoss)
}

// RunEpisode runs one seeded crash/fault episode and checks the store
// against the shadow model. The returned error is an infrastructure
// failure (the episode could not run); contract breaches are in
// Result.Violations.
func RunEpisode(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Seed: cfg.Seed, Mode: cfg.Mode}
	e := &episode{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		res:        res,
		line:       NewPowerLine(),
		dirtyUnion: make(map[int64]bool),
		damaged:    make(map[int64]bool),
	}

	diskSize := cfg.StripesPerDisk * cfg.StripeUnit
	e.backings = make([]core.BlockDevice, cfg.Disks)
	for i := range e.backings {
		e.backings[i] = core.NewMemDevice(diskSize)
	}
	e.devs = Wrap(e.backings, cfg.Seed)
	for _, d := range e.devs {
		d.OnLine(e.line)
	}
	if deferred(cfg.Mode) {
		e.nv = &core.MemNVRAM{}
	}
	st, err := core.Open(Devices(e.devs), e.nv, cfg.storeOptions())
	if err != nil {
		return res, err
	}
	e.st = st
	e.geo = st.Geometry()
	e.sh = newShadow(st.Capacity(), e.geo.StripeDataBytes())
	if cfg.Checksums {
		for _, d := range e.devs {
			d.SetChecksumRegion(e.geo.DiskSize)
		}
	}

	// Arm the schedule. Transient faults (which the store absorbs as
	// fail-stop) land on distinct victims, capped at the redundancy so
	// the array is never asked to survive more than it promises.
	victims := cfg.Transients
	if m := maxDead(cfg.Mode); victims > m {
		victims = m
	}
	for _, v := range e.rng.Perm(cfg.Disks)[:victims] {
		e.devs[v].AddRule(Rule{
			When: After(uint64(e.rng.Intn(cfg.Ops + 1))),
			Do:   Transient(nil),
			Max:  1,
		})
		res.FailedDisks = append(res.FailedDisks, v)
		e.victims = append(e.victims, v)
	}
	// Silent corruption: seeded one-shot bit flips, on the write path
	// (FlipBits) and as read-time media decay (ReadRot). Each rule lands
	// on a random device after a random number of its ops.
	for k := 0; k < cfg.FlipBits; k++ {
		e.devs[e.rng.Intn(cfg.Disks)].AddRule(Rule{
			When: All(Writes(), After(uint64(e.rng.Intn(cfg.Ops*2+1)))),
			Do:   FlipBit(),
			Max:  1,
		})
	}
	for k := 0; k < cfg.ReadRot; k++ {
		e.devs[e.rng.Intn(cfg.Disks)].AddRule(Rule{
			When: All(Reads(), After(uint64(e.rng.Intn(cfg.Ops*2+1)))),
			Do:   FlipBit(),
			Max:  1,
		})
	}
	if cfg.PowerCut {
		// Device writes outnumber workload ops; a fuse within a few
		// multiples of Ops usually blows mid-workload, and a fuse that
		// survives the workload is forced below.
		e.line.CutAfter(1 + e.rng.Int63n(int64(cfg.Ops)*3))
	}

	cut, err := e.runWorkload(cfg.Ops)
	if err != nil {
		return res, err
	}
	res.Degraded = len(st.DeadDisks()) > 0

	if cfg.PowerCut {
		if !cut {
			e.line.Cut()
		}
		if err := e.crashAndRecover(); err != nil {
			return res, err
		}
	}
	e.sampleDirty()
	res.DirtyAtCrash = len(e.dirtyUnion)

	// Phase A: every byte the store acknowledged must read back, except
	// that a hole stripe's bytes may pass through degraded
	// reconstruction over inconsistent parity while a disk is down.
	if err := e.verify("post-recovery", len(e.st.DeadDisks()) > 0); err != nil {
		return res, err
	}

	if err := e.failDisks(); err != nil {
		return res, err
	}
	if err := e.repairDisks(); err != nil {
		return res, err
	}

	// Parity audit: after a Flush on a whole array, only hole stripes
	// (sync modes never revisit them), stripes still dirty (held by
	// quarantine), and corrupted stripes whose reads report loss may be
	// inconsistent.
	if len(e.st.DeadDisks()) == 0 {
		auditErr := e.st.Flush()
		if auditErr != nil && e.cfg.Checksums && errors.Is(auditErr, core.ErrDataLoss) {
			// Stripes quarantined by detected-but-unrecoverable corruption
			// hold their dirty marks, so Flush reports loss. That is loss
			// accounting, not an audit failure — provided each quarantined
			// stripe is one that may legally lose data.
			for _, stp := range e.st.QuarantinedStripes() {
				if !e.allowedLoss(stp) {
					res.violate("stripe %d quarantined by corruption but was never unredundant", stp)
				}
			}
			e.sampleDirty()
			auditErr = nil
		}
		if auditErr == nil {
			dirtyNow := make(map[int64]bool)
			for _, stp := range e.st.DirtyList() {
				dirtyNow[stp] = true
			}
			bad, err := e.st.CheckParity()
			if err != nil {
				auditErr = err
			}
			for _, stp := range bad {
				if e.sh.holes[stp] || dirtyNow[stp] {
					continue
				}
				if e.csumArmed() && e.stripeReadsLost(stp) {
					continue // detected corruption, reported as loss
				}
				res.violate("parity inconsistent after flush on stripe %d (not a hole stripe)", stp)
			}
		}
		if auditErr != nil {
			if len(e.st.DeadDisks()) == 0 {
				return res, fmt.Errorf("fault: parity audit: %w", auditErr)
			}
			// A latent transient tripped mid-audit: the array is
			// degraded again and the audit no longer applies. The final
			// verify below still runs (in its degraded form).
			res.Degraded = true
		}
	}

	if err := e.verify("final", len(e.st.DeadDisks()) > 0); err != nil {
		return res, err
	}

	res.HoleStripes = len(e.sh.holes)
	res.RecoveredStripes = e.st.Stats().RecoveredStripes
	e.foldCounters()
	e.st.Close()
	return res, nil
}

// foldCounters adds the current store's and device wrappers' counters to
// the result: before a crash, which loses them (re-wrapping resets the
// wrappers'), and at the end of the episode.
func (e *episode) foldCounters() {
	stats := e.st.Stats()
	e.res.ChecksumsDetected += stats.ChecksumDetected
	e.res.ChecksumsRepaired += stats.ChecksumRepaired
	e.res.ChecksumsLost += stats.ChecksumLost
	e.res.FullStripeWrites += e.st.Obs().Counters()["full_stripe_writes"]
	for _, d := range e.devs {
		e.res.FlipBits += int(d.Stats().FlipBits)
	}
}

// crashAndRecover abandons the cut store and reopens from the
// surviving device contents — the machine rebooting after the crash.
func (e *episode) crashAndRecover() error {
	deadPre := e.st.DeadDisks()
	e.foldCounters()
	e.st.Close() // wrappers skip closing backings while the line is cut
	e.res.Crashed = true

	e.line.Restore()
	e.devs = Wrap(e.backings, e.cfg.Seed+1)
	e.victims = nil // re-wrapping discards any still-armed transient rules
	for _, d := range e.devs {
		d.OnLine(e.line)
	}
	// A member the old store had declared dead missed its degraded
	// writes; its contents are stale and must not resurrect. Re-fail it
	// so Open's probe sees it down.
	for _, i := range deadPre {
		e.devs[i].Fail()
	}
	nv := e.nv
	if e.cfg.DropNVRAM && nv != nil {
		nv = NewLostNVRAM()
		e.nv = nv
	}
	if e.cfg.Checksums {
		for _, d := range e.devs {
			d.SetChecksumRegion(e.geo.DiskSize)
		}
	}
	st, err := core.Open(Devices(e.devs), nv, e.cfg.storeOptions())
	if err != nil {
		return fmt.Errorf("fault: reopen after crash: %w", err)
	}
	e.st = st
	e.res.NVRAMRebuild = st.Stats().NVRAMRecovered
	return nil
}

// failDisks fails up to cfg.DiskFails additional members through the
// device layer, letting foreground I/O trip the store's degraded-mode
// absorption, then runs a short degraded workload burst.
func (e *episode) failDisks() error {
	limit := maxDead(e.cfg.Mode)
	failed := 0
	for failed < e.cfg.DiskFails {
		dead := e.st.DeadDisks()
		// An armed transient that hasn't tripped yet is a pending
		// failure the store can't see; scheduling another member on top
		// of it would exceed the redundancy the array promises.
		pending := 0
		for _, v := range e.victims {
			if !contains(dead, v) && !e.devs[v].Failed() {
				pending++
			}
		}
		if len(dead)+pending >= limit {
			break
		}
		e.sampleDirty()
		victim := e.pickAlive(dead)
		if victim < 0 {
			break
		}
		e.devs[victim].Fail()
		e.sweep() // touch every stripe so the failure is absorbed
		if !contains(e.st.DeadDisks(), victim) {
			if err := e.st.FailDisk(victim); err != nil {
				return fmt.Errorf("fault: fail disk %d: %w", victim, err)
			}
		}
		e.res.FailedDisks = append(e.res.FailedDisks, victim)
		failed++
	}
	if failed > 0 && e.cfg.Ops >= 4 {
		// Degraded burst: acknowledged writes must survive even with
		// members down (and must mirror onto an in-progress repair).
		if _, err := e.runWorkload(e.cfg.Ops / 4); err != nil {
			return err
		}
	}
	return nil
}

func (e *episode) pickAlive(dead []int) int {
	alive := make([]int, 0, e.cfg.Disks)
	for i := 0; i < e.cfg.Disks; i++ {
		if !contains(dead, i) && !e.devs[i].Failed() {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return -1
	}
	return alive[e.rng.Intn(len(alive))]
}

// sweep reads every stripe once, ignoring data-loss errors.
func (e *episode) sweep() {
	sdb := e.geo.StripeDataBytes()
	buf := make([]byte, sdb)
	for stp := int64(0); stp < e.geo.Stripes(); stp++ {
		e.st.ReadAt(buf, stp*sdb)
	}
}

// repairDisks repairs every dead member onto a fresh device and audits
// the damage report: every lost range must lie in a stripe that was
// unredundant at a failure point (or under an unacknowledged write) —
// the paper's bounded-exposure contract.
func (e *episode) repairDisks() error {
	if !e.cfg.Repair {
		return nil
	}
	diskSize := e.cfg.StripesPerDisk * e.cfg.StripeUnit
	for _, i := range e.st.DeadDisks() {
		e.sampleDirty()
		rep := New(core.NewMemDevice(diskSize), e.cfg.Seed+100+int64(i)).OnLine(e.line)
		if e.cfg.Checksums {
			rep.SetChecksumRegion(e.geo.DiskSize)
		}
		report, err := e.st.RepairDisk(i, rep)
		if err != nil {
			return fmt.Errorf("fault: repair disk %d: %w", i, err)
		}
		e.res.FlipBits += int(e.devs[i].Stats().FlipBits)
		e.devs[i] = rep
		for _, lost := range report.Lost {
			if !e.allowedLoss(lost.Stripe) {
				e.res.violate("repair of disk %d lost [%d,%d) in stripe %d, which was redundant at crash time",
					i, lost.Offset, lost.Offset+lost.Length, lost.Stripe)
			}
			e.damaged[lost.Stripe] = true
			e.sh.zero(lost.Offset, lost.Length)
			e.res.LostBytes += lost.Length
		}
		e.res.DamagedStripes += len(report.Lost)
		// A hole stripe the repair treated as clean was reconstructed
		// through possibly-inconsistent parity: the rebuilt data unit
		// (and only it) is untrustworthy. Survivor units were read
		// directly and stay fully checked.
		for stp := range e.sh.holes {
			if e.damaged[stp] {
				continue
			}
			if role, dataIdx := e.geo.RoleOf(stp, i); role == layout.Data {
				e.sh.distrust(stp*e.geo.StripeDataBytes()+int64(dataIdx)*e.cfg.StripeUnit, e.cfg.StripeUnit)
			}
		}
	}
	return nil
}

// verify reads every stripe and checks it against the shadow model.
// Data-loss reads are legal only on stripes in the allowed-loss set;
// determinate bytes elsewhere must match bit-exact. When
// excuseHoleBytes is set (a disk is down), hole stripes skip the byte
// comparison: their reads may pass through inconsistent parity.
func (e *episode) verify(label string, excuseHoleBytes bool) error {
	sdb := e.geo.StripeDataBytes()
	buf := make([]byte, sdb)
	for stp := int64(0); stp < e.geo.Stripes(); stp++ {
		if _, err := e.st.ReadAt(buf, stp*sdb); err != nil {
			if errors.Is(err, core.ErrDataLoss) {
				if !e.allowedLoss(stp) {
					e.res.violate("%s: stripe %d unreadable (%v) but was redundant at crash time", label, stp, err)
				}
				continue
			}
			return fmt.Errorf("fault: verify %s stripe %d: %w", label, stp, err)
		}
		if excuseHoleBytes && e.sh.holes[stp] {
			continue
		}
		if off := e.sh.diff(stp, buf); off >= 0 {
			e.res.violate("%s: byte %d (stripe %d) diverged from acknowledged write", label, off, stp)
		}
	}
	return nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
