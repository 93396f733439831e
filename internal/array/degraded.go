package array

import (
	"fmt"
	"time"

	"afraid/internal/disk"
	"afraid/internal/layout"
)

// Degraded-mode simulation: §2 notes that "all the well-known
// techniques that have been developed for performing stripe rebuilds in
// a recently repaired disk array can be applied" to AFRAID. This file
// injects a fail-stop disk failure at a configured time, serves
// reads/writes degraded (survivor reconstruction), runs a Muntz90-style
// linear rebuild sweep onto a hot spare, and accounts the data AFRAID
// actually loses: one stripe unit per stripe that was unredundant at
// the instant of the failure — the measured counterpart of the §3
// exposure model.

// Fault configures an injected disk failure.
type Fault struct {
	// At is the virtual time of the fail-stop failure; zero disables
	// fault injection.
	At time.Duration
	// Disk is the member that fails.
	Disk int
	// SpareRebuild starts a background reconstruction sweep onto a hot
	// spare immediately after the failure. Without it the array stays
	// degraded for the rest of the run.
	SpareRebuild bool
}

// degradedState tracks the failure lifecycle.
type degradedState struct {
	failed      int // failed member, -1 when healthy
	failedAt    time.Duration
	rebuiltUpTo int64 // stripes below this are reconstructed on the spare
	sweepDone   bool
	doneAt      time.Duration

	lostUnits  int64 // dirty stripes with a data unit on the failed disk
	degReads   uint64
	degLatency int64 // count of requests submitted while degraded
}

// armFault schedules the configured failure.
func (a *Array) armFault() {
	f := a.cfg.Fault
	if f.At <= 0 {
		return
	}
	if f.Disk < 0 || f.Disk >= a.geo.Disks {
		panic(fmt.Sprintf("array: fault disk %d out of range", f.Disk))
	}
	a.eng.At(f.At, a.injectFault)
}

// injectFault fails the configured disk: the paper's exposure becomes
// concrete — every stripe marked unredundant right now loses the data
// unit it keeps on the failed disk (if any; losing the parity unit
// costs nothing).
func (a *Array) injectFault() {
	f := a.cfg.Fault
	if a.deg.failed >= 0 {
		return
	}
	a.deg.failed = f.Disk
	a.deg.failedAt = a.eng.Now()
	a.deg.rebuiltUpTo = 0

	// Realize the loss: count dirty stripes whose failed-disk unit
	// holds data. Only a preset whose writes keep no parity (n = 0)
	// loses anything to one failure; from n = 1 on, P stays fresh.
	if a.sync == 0 {
		for _, slot := range a.marks.Marked() {
			stripe := a.stripeOfSlot(slot)
			if role, _ := a.geo.RoleOf(stripe, f.Disk); role == layout.Data {
				a.deg.lostUnits++
			}
		}
	}

	if f.SpareRebuild {
		// Replace the failed member's slot with a fresh spare drive;
		// reads keep reconstructing until the sweep passes each stripe.
		var phase time.Duration
		a.disks[f.Disk] = disk.New(a.cfg.Disk, phase)
		a.rebuildSweepNext()
	}
}

// degraded reports whether an extent's disk is currently unreadable
// (failed and not yet covered by the spare sweep).
func (a *Array) degradedExtent(e layout.Extent) bool {
	return a.deg.failed >= 0 && e.Disk == a.deg.failed &&
		(!a.cfg.Fault.SpareRebuild || e.Stripe >= a.deg.rebuiltUpTo)
}

// readExtentDegraded reconstructs a lost extent: read the same byte
// range of every surviving unit in the stripe (data and parity) and
// xor. Cost: Disks-1 parallel reads.
func (a *Array) readExtentDegraded(r *request, e layout.Extent) {
	a.deg.degReads++
	base := a.geo.DiskOffset(e.Stripe) + e.UnitOff
	for d := 0; d < a.geo.Disks; d++ {
		if d == a.deg.failed {
			continue
		}
		r.remaining++
		a.issue(d, diskOp{off: base, n: e.Len, done: func() { a.finishOne(r) }})
	}
}

// sweepBatch is the number of contiguous stripes reconstructed per
// sweep step. Batching turns the sweep into large sequential transfers
// (a streaming rebuild), which is what makes the paper's §3.1 estimate
// — "about ten minutes for an array using 2GB disks that can read at a
// sustained rate of 5MB/s" — achievable; per-stripe random I/O would
// take hours.
const sweepBatch = 64

// rebuildSweepNext reconstructs the next batch of stripes onto the
// spare: sequential reads of every surviving member, xor (free), one
// sequential write to the spare. The sweep is linear (Muntz90's
// baseline) and competes with foreground I/O through the ordinary FCFS
// disk queues, preempting between batches.
func (a *Array) rebuildSweepNext() {
	if a.deg.failed < 0 || a.deg.sweepDone {
		return
	}
	stripe := a.deg.rebuiltUpTo
	if stripe >= a.geo.Stripes() {
		a.finishSweep()
		return
	}
	batch := int64(sweepBatch)
	if stripe+batch > a.geo.Stripes() {
		batch = a.geo.Stripes() - stripe
	}
	n := batch * a.geo.StripeUnit
	off := a.geo.DiskOffset(stripe)
	deps := 0
	for d := 0; d < a.geo.Disks; d++ {
		if d == a.deg.failed {
			continue
		}
		deps++
		a.issue(d, diskOp{off: off, n: n, done: func() {
			deps--
			if deps == 0 {
				// Write the reconstructed region to the spare (sitting
				// in the failed member's slot).
				a.issue(a.deg.failed, diskOp{write: true, off: off, n: n, done: func() {
					a.deg.rebuiltUpTo += batch
					a.rebuildSweepNext()
				}})
			}
		}})
	}
}

// finishSweep completes the spare rebuild: the array is healthy again.
func (a *Array) finishSweep() {
	a.deg.sweepDone = true
	a.deg.doneAt = a.eng.Now()
	a.deg.failed = -1
}
