// Package fault is a seeded, deterministic fault-injection layer and
// crash-recovery harness over core.BlockDevice. Device wraps a backing
// device and executes a programmable set of Rules — fail-stop,
// transient I/O errors (wrapping core.ErrDeviceFailed so the store's
// degraded-mode machinery absorbs them), injected latency, torn writes,
// and silent bit corruption — gated by composable Triggers. PowerLine
// models whole-machine power loss: in-flight writes land torn or not at
// all. On top, Run (run.go) drives any Stack — core here, the tier and
// the cluster volume through their own adapters — through randomized
// crash/fault schedules and checks every byte against one shadow
// model, asserting the AFRAID contract: loss is confined to stripes
// that were unredundant at a failure, and always reported.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"afraid/internal/core"
)

// Errors produced by injected faults.
var (
	// ErrInjected is the default transient fault. It wraps
	// core.ErrDeviceFailed, so the store treats the member as fail-stop
	// and absorbs it into degraded mode.
	ErrInjected = fmt.Errorf("fault: injected error: %w", core.ErrDeviceFailed)
	// ErrTorn is returned by a TornWrite action after persisting only a
	// prefix of the write. It does not wrap core.ErrDeviceFailed: the
	// disk is fine, the write is not.
	ErrTorn = errors.New("fault: torn write")
)

// Op describes one device operation for trigger evaluation.
type Op struct {
	N       uint64 // 1-based sequence number of this op on the device
	Write   bool
	Off     int64
	Len     int
	Trailer bool // op starts in the checksum-trailer region (SetChecksumRegion)
}

// Trigger decides whether a rule fires for an operation. Triggers may
// consume the device's seeded RNG (Prob), so rule order is part of the
// deterministic schedule.
type Trigger func(op Op, rng *rand.Rand) bool

// After fires on every op once more than n ops have been issued.
func After(n uint64) Trigger {
	return func(op Op, _ *rand.Rand) bool { return op.N > n }
}

// Reads fires on reads only.
func Reads() Trigger {
	return func(op Op, _ *rand.Rand) bool { return !op.Write }
}

// Writes fires on writes only.
func Writes() Trigger {
	return func(op Op, _ *rand.Rand) bool { return op.Write }
}

// InRange fires when the op overlaps [off, off+length) on the device.
func InRange(off, length int64) Trigger {
	return func(op Op, _ *rand.Rand) bool {
		return op.Off < off+length && op.Off+int64(op.Len) > off
	}
}

// Trailer fires on ops that touch the checksum-trailer region declared
// with SetChecksumRegion. With no region declared it never fires.
func Trailer() Trigger {
	return func(op Op, _ *rand.Rand) bool { return op.Trailer }
}

// Prob fires with probability p, drawn from the device's seeded RNG.
func Prob(p float64) Trigger {
	return func(_ Op, rng *rand.Rand) bool { return rng.Float64() < p }
}

// Every fires on every n-th op.
func Every(n uint64) Trigger {
	return func(op Op, _ *rand.Rand) bool { return n > 0 && op.N%n == 0 }
}

// All fires when every trigger fires (evaluated in order, so an RNG
// consumer placed last is only consulted when the cheap gates pass).
func All(ts ...Trigger) Trigger {
	return func(op Op, rng *rand.Rand) bool {
		for _, t := range ts {
			if !t(op, rng) {
				return false
			}
		}
		return true
	}
}

type actionKind int

const (
	actFailStop actionKind = iota
	actTransient
	actDelay
	actTornWrite
	actFlipBit
)

// Action is what a fired rule does to the operation.
type Action struct {
	kind  actionKind
	err   error
	delay time.Duration
}

// FailStop fails the device permanently (until Heal): the op and all
// subsequent ones return core.ErrDeviceFailed.
func FailStop() Action { return Action{kind: actFailStop} }

// Transient fails the op with err without changing device state. A nil
// err uses ErrInjected (which wraps core.ErrDeviceFailed, so the store
// declares the member dead and degrades).
func Transient(err error) Action {
	if err == nil {
		err = ErrInjected
	}
	return Action{kind: actTransient, err: err}
}

// Delay sleeps for d before performing the op normally: a slow member.
// The sleep holds no lock, so ops elsewhere on the device go on, and an
// op whose context ends first fails with the context's error, never
// reaching the backing device. Unlike the other actions, a firing Delay
// does not stop rule evaluation.
func Delay(d time.Duration) Action { return Action{kind: actDelay, delay: d} }

// TornWrite persists a seeded-random strict prefix of the write (possibly
// none of it) and returns ErrTorn. Ignored on reads.
func TornWrite() Action { return Action{kind: actTornWrite} }

// FlipBit silently corrupts one seeded-random bit. On a write the
// flipped data lands and the write "succeeds"; on a read the flip is
// also persisted to the backing — media decay discovered (or not) at
// read time, not a one-shot transfer glitch.
func FlipBit() Action { return Action{kind: actFlipBit} }

// Rule is a Trigger-gated Action with an optional firing budget.
type Rule struct {
	When Trigger // nil means every op
	Do   Action
	Max  int // max firings; 0 means unlimited

	hits int
}

// Stats counts device activity and injected faults.
type Stats struct {
	Reads, Writes uint64
	FailStops     uint64
	Transients    uint64
	Delays        uint64
	TornWrites    uint64
	FlipBits      uint64
	PowerRejects  uint64 // ops rejected (or torn) by a cut PowerLine
}

// Device is a fault-injecting core.BlockDevice wrapper. All state is
// mutex-serialized, so a single-threaded op stream with a fixed seed
// replays the same fault schedule exactly.
type Device struct {
	mu        sync.Mutex
	backing   core.BlockDevice
	rng       *rand.Rand
	rules     []*Rule
	line      *PowerLine
	failed    bool
	ops       uint64
	csumStart int64 // device offset where the checksum trailer begins; -1 = none
	stats     Stats
	damaged   [][2]int64 // byte ranges a flip or a cut write changed that no write has landed on since
}

// damage records that [off, end) changed under an injected fault. Caller
// holds mu.
func (d *Device) damage(off, end int64) { d.damaged = append(d.damaged, [2]int64{off, end}) }

// cover drops the damage a write that landed on [off, end) replaced.
// Caller holds mu.
func (d *Device) cover(off, end int64) {
	var left [][2]int64
	for _, r := range d.damaged {
		if r[0] < off {
			left = append(left, [2]int64{r[0], min(r[1], off)})
		}
		if r[1] > end {
			left = append(left, [2]int64{max(r[0], end), r[1]})
		}
	}
	d.damaged = left
}

// Damaged reports whether an injected fault — a flipped bit, a write the
// power cut tore or a checksum slot it kept from landing — changed a byte
// of [off, off+n) that no write has landed on since: the unit holding it
// has failed, detected or not.
func (d *Device) Damaged(off, n int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.ContainsFunc(d.damaged, func(r [2]int64) bool { return r[0] < off+n && off < r[1] })
}

// New wraps backing with a fault layer seeded with seed.
func New(backing core.BlockDevice, seed int64, plan ...Rule) *Device {
	d := &Device{backing: backing, rng: rand.New(rand.NewSource(seed)), csumStart: -1}
	for _, r := range plan {
		d.AddRule(r)
	}
	return d
}

// Wrap wraps every device with a fault layer; each gets a seed derived
// from seed and its index. The optional plan is armed on all of them.
func Wrap(devs []core.BlockDevice, seed int64, plan ...Rule) []*Device {
	out := make([]*Device, len(devs))
	for i, b := range devs {
		out[i] = New(b, seed+int64(i)*7919, plan...)
	}
	return out
}

// Devices converts fault wrappers to the core interface slice Open wants.
func Devices(ds []*Device) []core.BlockDevice {
	out := make([]core.BlockDevice, len(ds))
	for i, d := range ds {
		out[i] = d
	}
	return out
}

// OnLine attaches the device to a power line and returns it.
func (d *Device) OnLine(l *PowerLine) *Device {
	d.mu.Lock()
	d.line = l
	d.mu.Unlock()
	return d
}

// SetChecksumRegion declares where the store's checksum trailer starts
// on this device (core's layout.Geometry.DiskSize), so triggers can
// tell data I/O from checksum-slot I/O: Trailer() gates a rule to slot
// ops, and a TornWrite firing there models the torn-metadata crash —
// a slot half-landed, which the store must treat as a mismatch (detect
// and repair), never as a valid checksum.
func (d *Device) SetChecksumRegion(start int64) *Device {
	d.mu.Lock()
	d.csumStart = start
	d.mu.Unlock()
	return d
}

// AddRule arms a rule.
func (d *Device) AddRule(r Rule) *Device {
	d.mu.Lock()
	rc := r
	d.rules = append(d.rules, &rc)
	d.mu.Unlock()
	return d
}

// Mirror arms one rule across the copies of a mirrored set so it fires
// on exactly one of them — whichever copy's trigger trips first — and
// is suppressed on the rest. Tier fault schedules use it to take out a
// single copy of a front pair without hand-rolling per-device plans: a
// mirrored tier that loses both copies at once has no contract left to
// test. The shared budget is on top of the rule's own Max, which still
// bounds repeat firings on the copy that won the race.
func Mirror(r Rule, copies ...*Device) {
	var winner atomic.Int32
	winner.Store(-1)
	for i, d := range copies {
		i := int32(i)
		rc := r
		inner := r.When
		rc.When = func(op Op, rng *rand.Rand) bool {
			if inner != nil && !inner(op, rng) {
				return false
			}
			// The first copy whose trigger trips claims the fault for
			// the whole set; repeat firings stay on that copy.
			return winner.CompareAndSwap(-1, i) || winner.Load() == i
		}
		d.AddRule(rc)
	}
}

// Fail switches the device into fail-stop state. It implements
// core.Failer, so core.Store.FailDisk propagates here.
func (d *Device) Fail() {
	d.mu.Lock()
	d.failed = true
	d.stats.FailStops++
	d.mu.Unlock()
}

// Heal clears the fail-stop state. The contents are whatever the
// backing holds — stale if the array wrote around the failure.
func (d *Device) Heal() {
	d.mu.Lock()
	d.failed = false
	d.mu.Unlock()
}

// Failed reports whether the device is in fail-stop state.
func (d *Device) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// Stats returns a snapshot of the fault counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Backing returns the wrapped device.
func (d *Device) Backing() core.BlockDevice { return d.backing }

// Size returns the backing capacity.
func (d *Device) Size() int64 { return d.backing.Size() }

// Close closes the backing device — unless the power line is cut, in
// which case the machine stopped without a clean shutdown and the
// backing is left as-is for the harness to reopen.
func (d *Device) Close() error {
	d.mu.Lock()
	line := d.line
	d.mu.Unlock()
	if line != nil && line.IsCut() {
		return nil
	}
	return d.backing.Close()
}

// fire evaluates the rules for op and returns the first firing action
// that is not a Delay. Fired Delays add up, and fire sleeps them off with
// mu released (the caller holds it on entry and on return): an error is
// ctx ending first.
func (d *Device) fire(ctx context.Context, op Op) (act Action, ok bool, err error) {
	var delay time.Duration
	for _, r := range d.rules {
		if r.Max > 0 && r.hits >= r.Max {
			continue
		}
		if !op.Write && r.Do.kind == actTornWrite {
			continue
		}
		if r.When != nil && !r.When(op, d.rng) {
			continue
		}
		r.hits++
		if r.Do.kind != actDelay {
			act, ok = r.Do, true
			break
		}
		d.stats.Delays++
		delay += r.Do.delay
	}
	if delay > 0 {
		d.mu.Unlock()
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-t.C:
		}
		t.Stop()
		d.mu.Lock()
	}
	return act, ok, err
}

// ReadAt implements io.ReaderAt with fault injection.
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	return d.ReadAtContext(context.Background(), p, off)
}

// ReadAtContext is ReadAt under ctx, which bounds a fired Delay.
func (d *Device) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	d.mu.Lock()
	if d.line != nil && d.line.IsCut() {
		d.stats.PowerRejects++
		d.mu.Unlock()
		return 0, ErrPowerCut
	}
	if d.failed {
		d.mu.Unlock()
		return 0, core.ErrDeviceFailed
	}
	d.ops++
	d.stats.Reads++
	act, ok, err := d.fire(ctx, Op{N: d.ops, Off: off, Len: len(p), Trailer: d.csumStart >= 0 && off >= d.csumStart})
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	if ok {
		switch act.kind {
		case actFailStop:
			d.failed = true
			d.stats.FailStops++
			d.mu.Unlock()
			return 0, core.ErrDeviceFailed
		case actTransient:
			d.stats.Transients++
			d.mu.Unlock()
			return 0, act.err
		case actFlipBit:
			if len(p) > 0 {
				// Read-path bit decay: the medium rotted under this
				// range. The flip is persisted to the backing so it is
				// durable corruption every later read sees too.
				d.stats.FlipBits++
				bit := d.rng.Intn(len(p) * 8)
				d.damage(off+int64(bit/8), off+int64(bit/8)+1)
				d.mu.Unlock()
				n, err := d.backing.ReadAt(p, off)
				if err != nil {
					return n, err
				}
				p[bit/8] ^= 1 << (bit % 8)
				d.backing.WriteAt(p[bit/8:bit/8+1], off+int64(bit/8))
				return n, nil
			}
		}
	}
	d.mu.Unlock()
	return d.backing.ReadAt(p, off)
}

// WriteAt implements io.WriterAt with fault injection. A cut power line
// rejects the write; the write in flight when the line's fuse blows
// lands a torn prefix first (see PowerLine.CutAfter).
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	return d.WriteAtContext(context.Background(), p, off)
}

// WriteVecAtContext writes bufs back to back at off as one op: the rules,
// a torn write, a power cut and the damage record see one write over the
// whole range, as a member that takes a vector in one call would.
func (d *Device) WriteVecAtContext(ctx context.Context, bufs [][]byte, off int64) (int, error) {
	return d.WriteAtContext(ctx, slices.Concat(bufs...), off)
}

// WriteAtContext is WriteAt under ctx, which bounds a fired Delay.
func (d *Device) WriteAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	d.mu.Lock()
	if d.line != nil {
		prefix, ok := d.line.admitWrite(len(p), d.rng)
		if !ok {
			d.stats.PowerRejects++
			if prefix > 0 {
				d.backing.WriteAt(p[:prefix], off)
			}
			// A slot that missed its write no longer matches the unit that got one.
			if d.csumStart >= 0 && off >= d.csumStart {
				d.damage(off, off+int64(len(p)))
			} else if prefix > 0 {
				d.damage(off, off+int64(prefix))
			}
			d.mu.Unlock()
			return 0, ErrPowerCut
		}
	}
	if d.failed {
		d.mu.Unlock()
		return 0, core.ErrDeviceFailed
	}
	d.ops++
	d.stats.Writes++
	act, ok, err := d.fire(ctx, Op{N: d.ops, Write: true, Off: off, Len: len(p), Trailer: d.csumStart >= 0 && off >= d.csumStart})
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	if ok {
		switch act.kind {
		case actFailStop:
			d.failed = true
			d.stats.FailStops++
			d.mu.Unlock()
			return 0, core.ErrDeviceFailed
		case actTransient:
			d.stats.Transients++
			d.mu.Unlock()
			return 0, act.err
		case actTornWrite:
			d.stats.TornWrites++
			n := 0
			if len(p) > 0 {
				n = d.rng.Intn(len(p))
			}
			if n > 0 {
				d.backing.WriteAt(p[:n], off)
				d.damage(off, off+int64(n))
			}
			d.mu.Unlock()
			return 0, ErrTorn
		case actFlipBit:
			d.stats.FlipBits++
			cp := make([]byte, len(p))
			copy(cp, p)
			d.cover(off, off+int64(len(p)))
			if len(cp) > 0 {
				bit := d.rng.Intn(len(cp) * 8)
				cp[bit/8] ^= 1 << (bit % 8)
				d.damage(off+int64(bit/8), off+int64(bit/8)+1)
			}
			d.mu.Unlock()
			return d.backing.WriteAt(cp, off)
		}
	}
	d.cover(off, off+int64(len(p)))
	d.mu.Unlock()
	return d.backing.WriteAt(p, off)
}
