package array

import (
	"fmt"
	"time"

	"afraid/internal/iosched"
	"afraid/internal/layout"
	"afraid/internal/trace"
)

// request tracks one client I/O through the array. remaining counts
// outstanding units of work (disk ops plus deferred spans); the request
// completes when it reaches zero.
type request struct {
	rec       trace.Record
	submit    time.Duration
	remaining int
}

// Submit enters a client request into the host device driver at the
// current virtual time. Latency is measured from here, matching the
// paper ("start when a request is given to the device driver ...
// include any time spent queued in the device driver").
func (a *Array) Submit(rec trace.Record) {
	if rec.Length <= 0 || rec.Offset < 0 || rec.Offset+rec.Length > a.geo.Capacity() {
		panic(fmt.Sprintf("array: request [%d,%d) outside capacity %d", rec.Offset, rec.Offset+rec.Length, a.geo.Capacity()))
	}
	a.submitted++
	if a.deg.failed >= 0 {
		a.deg.degLatency++
	}
	r := &request{rec: rec, submit: a.eng.Now()}
	admitted, ok := a.limiter.Submit(iosched.Request{Pos: rec.Offset, Payload: r})
	if ok {
		a.start(admitted.Payload.(*request))
	}
}

// start begins an admitted request.
func (a *Array) start(r *request) {
	a.fgArrived = true
	if _, wasIdle := a.tracker.Due(); wasIdle {
		a.busyTW.Set(a.eng.Now(), 1)
	}
	a.tracker.Start()
	if a.idleTimer != nil {
		a.idleTimer.Stop()
		a.idleTimer = nil
		a.idleGen++ // invalidate a callback Stop could no longer cancel
	}
	a.updateConservative()
	a.updateMTTDLPolicy()

	r.remaining = 1 // guard against synchronous completion while fanning out
	if r.rec.Write {
		a.startWrite(r)
	} else {
		a.startRead(r)
	}
	a.finishOne(r)
}

// finishOne retires one unit of work; at zero the request completes.
func (a *Array) finishOne(r *request) {
	r.remaining--
	if r.remaining > 0 {
		return
	}
	if r.remaining < 0 {
		panic("array: request completion underflow")
	}
	now := a.eng.Now()
	lat := now - r.submit
	a.ioTime.Add(lat)
	if r.rec.Write {
		a.writes++
		a.writeTime.Add(lat)
	} else {
		a.reads++
		a.readTime.Add(lat)
	}
	a.completed++
	a.tracker.End(onIdleClock(now))
	if _, idle := a.tracker.Due(); idle {
		a.busyTW.Set(now, 0)
	}
	a.maybeArmIdleTimer()
	if next, ok := a.limiter.Done(); ok {
		a.start(next.Payload.(*request))
	}
}

// startRead issues a client read: whole-range cache hits complete in
// controller time; otherwise every extent is read from disk.
func (a *Array) startRead(r *request) {
	if a.cache.ReadHit(r.rec.Offset, r.rec.Length) {
		r.remaining++
		a.eng.After(cacheHitTime, func() { a.finishOne(r) })
		return
	}
	spans := a.geo.Split(r.rec.Offset, r.rec.Length)
	for _, sp := range spans {
		sp := sp
		a.runLocked(r, sp.Stripe, func() {
			for _, e := range sp.Extents {
				e := e
				if a.degradedExtent(e) {
					a.readExtentDegraded(r, e)
					continue
				}
				r.remaining++
				a.issue(e.Disk, diskOp{off: e.DiskOff, n: e.Len, done: func() {
					a.cache.FillRead(e.ArrOff, e.Len)
					a.finishOne(r)
				}})
			}
		})
	}
}

// startWrite dispatches a client write according to the current mode.
func (a *Array) startWrite(r *request) {
	a.cache.Write(r.rec.Offset, r.rec.Length) // write-through staging
	spans := a.geo.Split(r.rec.Offset, r.rec.Length)
	for _, sp := range spans {
		sp := sp
		a.runLocked(r, sp.Stripe, func() { a.writeSpan(r, sp) })
	}
}

// runLocked runs fn now, or defers it until the stripe's parity rebuild
// finishes ("multiple writes to the same stripe were allowed to proceed
// in parallel, but would block if a parity-rebuild on that stripe was in
// progress" — reads to the stripe block likewise while its parity is
// being rewritten).
func (a *Array) runLocked(r *request, stripe int64, fn func()) {
	if waiters, locked := a.rebuildLocked[stripe]; locked {
		r.remaining++
		a.rebuildLocked[stripe] = append(waiters, func() {
			fn()
			a.finishOne(r)
		})
		return
	}
	fn()
}

// writeSpan performs the per-stripe write work for one span: the data
// and the parities the sync count keeps current. While the MTTDL_x
// revert or conservative start holds the count at m, that is every
// parity; so it is while a member is down, because deferring parity
// then would turn the *next* failure into certain loss, and the marking
// memory cannot protect a stripe whose data is already unreadable.
func (a *Array) writeSpan(r *request, sp layout.StripeSpan) {
	n := a.sync
	if a.reverted || a.deg.failed >= 0 {
		n = a.parities
	}
	switch {
	case a.cfg.mode == PARITYLOG && a.deg.failed < 0:
		a.writeSpanPLog(r, sp)
	case n < a.parities:
		// The AFRAID fast path: mark the stripe unredundant in NVRAM
		// (effectively free) and write the data and only the first n
		// parities — at n = 0 one I/O in the critical path instead of
		// four.
		a.markSpanDirty(sp)
		a.writeSpanParity(r, sp, n)
		a.checkDirtyThreshold()
	default:
		a.writeSpanParity(r, sp, n)
	}
}

// writeSpanParity writes a span's data and the stripe's first k parities
// (data only at k = 0) by the small-update protocol that fits:
//
//   - full-stripe spans: compute parity from the new data, write all
//     data units plus parity (no pre-reads);
//   - spans covering more than half the stripe, and every span while a
//     member is down: reconstruct-write — pre-read the uncovered units,
//     then write data and parity;
//   - small spans: read-modify-write — pre-read old data (unless the
//     controller caches it) and each old parity, then write data and
//     parity.
//
// A down member is neither read nor written: its unit stays encoded in
// the surviving parities. The request completes only when every parity
// write has finished: that serialization is exactly the small-update
// penalty AFRAID removes.
func (a *Array) writeSpanParity(r *request, sp layout.StripeSpan, k int) {
	a.noteWriteActive(sp.Stripe)
	stripe := sp.Stripe
	off := a.geo.DiskOffset(stripe)
	unit := a.geo.StripeUnit
	failed := a.deg.failed

	// A parity write vouches for the stripe only if it keeps every
	// parity; at k < m the deferred ones stay stale behind the mark.
	keepsAll := k == a.parities
	pars := make([]int, 0, k)
	for j := 0; j < k; j++ {
		if d := a.parityDisk(stripe, j); d != failed {
			pars = append(pars, d)
		}
	}

	covered := make(map[int]bool, len(sp.Extents))
	partial := false
	for _, e := range sp.Extents {
		covered[e.DataIdx] = true
		if e.Len != unit {
			partial = true
		}
	}
	full := len(covered) == a.geo.DataDisks() && !partial
	reconstruct := failed >= 0 || (!full && !partial && len(covered) > a.geo.DataDisks()/2)

	// Reserve the parity writes in the request's work count now: data
	// writes on other disks may land before the pre-reads complete, and
	// the request must not retire until parity is on disk.
	r.remaining += len(pars)
	writeParities := func() {
		for _, d := range pars {
			a.issue(d, diskOp{write: true, off: off, n: unit, done: func() {
				if keepsAll && a.activeWrites[stripe] == 0 {
					a.markCleanStripe(stripe)
				}
				a.finishOne(r)
			}})
		}
	}

	// Issue the pre-reads the parity writes depend on, counting
	// dependencies so they launch when the last one lands.
	deps := 0
	issuePre := func(d int, op diskOp) {
		deps++
		op.done = func() {
			deps--
			if deps == 0 {
				writeParities()
			}
		}
		a.issue(d, op)
	}
	switch {
	case len(pars) == 0 || full:
		// No parity to write, or parity computed from the new data.
	case reconstruct:
		// Reconstruct-write: read the units not being overwritten.
		for i := 0; i < a.geo.DataDisks(); i++ {
			if d := a.geo.DataDisk(stripe, i); !covered[i] && d != failed {
				issuePre(d, diskOp{off: off, n: unit})
			}
		}
	default:
		// Read-modify-write: old data (unless cached) and old parities.
		for _, e := range sp.Extents {
			if a.cache.OldDataCached(e.ArrOff, e.Len) {
				continue
			}
			issuePre(e.Disk, diskOp{off: e.DiskOff, n: e.Len})
		}
		for _, d := range pars {
			issuePre(d, diskOp{off: off, n: unit})
		}
	}

	// Data writes proceed independently of the parity chain. Per-disk
	// FCFS queues keep a pre-read of a block ahead of its overwrite.
	pendingData := 0
	for _, e := range sp.Extents {
		if e.Disk != failed {
			pendingData++
		}
	}
	if pendingData == 0 {
		a.noteWriteDone(stripe) // every extent absorbed into parity
	}
	for _, e := range sp.Extents {
		if e.Disk == failed {
			continue
		}
		r.remaining++
		a.issue(e.Disk, diskOp{write: true, off: e.DiskOff, n: e.Len, done: func() {
			pendingData--
			if pendingData == 0 {
				a.noteWriteDone(stripe)
			}
			a.finishOne(r)
		}})
	}

	if deps == 0 {
		// No pre-reads were needed; parity can be written immediately.
		writeParities()
	}
}

// parityDisk returns the disk of a stripe's parity j: P, then Q.
func (a *Array) parityDisk(stripe int64, j int) int {
	if j == 0 {
		return a.geo.ParityDisk(stripe)
	}
	return a.geo.QDisk(stripe)
}

// noteWriteActive/noteWriteDone track in-flight foreground write spans
// per stripe so the rebuilder never rewrites parity under an active
// write.
func (a *Array) noteWriteActive(stripe int64) { a.activeWrites[stripe]++ }

func (a *Array) noteWriteDone(stripe int64) {
	a.activeWrites[stripe]--
	if a.activeWrites[stripe] < 0 {
		panic("array: active write count underflow")
	}
	if a.activeWrites[stripe] == 0 {
		delete(a.activeWrites, stripe)
	}
}
