package array

import (
	"sort"

	"afraid/internal/layout"
)

// Parity logging [Stodolsky93] is the related-work baseline of the
// paper's §2: instead of updating parity in place, a small write does a
// read-modify-write on the data block only and appends the xor of old
// and new data (the "parity update image") to a log, preserving full
// redundancy at all times. Logged images accumulate in an NVRAM buffer,
// are flushed to an on-disk log region in large sequential writes, and
// are later reintegrated into the parity in a batch.
//
// The paper's claims about this scheme, which the model reproduces:
//
//   - the write critical path still pays the old-data pre-read (a full
//     extra rotation AFRAID avoids);
//   - reintegration batches interfere with foreground I/O;
//   - when the log fills, foreground writes stall until reintegration
//     completes ("there is no parity log to fill up in AFRAID — all
//     that happens is that the data becomes less well protected").
//
// The log is distributed like parity: the image for a stripe is logged
// on that stripe's parity disk, in a region reserved past the striped
// space.

// plState is the per-disk parity-log state.
type plState struct {
	buffered int64 // bytes in the NVRAM staging buffer
	logged   int64 // bytes in the on-disk log region
	// pending maps stripe -> true for stripes with unintegrated images.
	pending map[int64]bool
	// reintegrating marks a reintegration pass in flight.
	reintegrating bool
	// stalled holds write work waiting for log space.
	stalled []func()
}

// plInit allocates parity-log state (called lazily from writeSpanPLog).
func (a *Array) plInit() {
	if a.plog != nil {
		return
	}
	a.plog = make([]*plState, a.geo.Disks)
	for i := range a.plog {
		a.plog[i] = &plState{pending: make(map[int64]bool)}
	}
}

// logRegionOffset returns the start of disk d's log region (just past
// the striped space; New validated the physical capacity).
func (a *Array) logRegionOffset() int64 { return a.geo.DiskSize }

// writeSpanPLog performs a parity-logging small write for one stripe
// span: RMW on the data blocks, then an NVRAM log append (free) with
// asynchronous batched flushing to the log region.
func (a *Array) writeSpanPLog(r *request, sp layout.StripeSpan) {
	a.plInit()
	pDisk := a.geo.ParityDisk(sp.Stripe)
	st := a.plog[pDisk]

	imageBytes := sp.Bytes()
	if st.logged+st.buffered+imageBytes > a.cfg.PLog.LogBytes {
		// Log full: this write stalls until reintegration frees space.
		a.stalls++
		r.remaining++
		st.stalled = append(st.stalled, func() {
			a.writeSpanPLog(r, sp)
			a.finishOne(r)
		})
		a.startReintegration(pDisk)
		return
	}

	a.noteWriteActive(sp.Stripe)
	// Data-block read-modify-write: the pre-read stays in the critical
	// path (FCFS per disk orders read before write); the request
	// completes when the data writes land.
	pending := len(sp.Extents)
	for _, e := range sp.Extents {
		e := e
		if !a.cache.OldDataCached(e.ArrOff, e.Len) {
			a.issue(e.Disk, diskOp{off: e.DiskOff, n: e.Len})
		}
		r.remaining++
		a.issue(e.Disk, diskOp{write: true, off: e.DiskOff, n: e.Len, done: func() {
			pending--
			if pending == 0 {
				a.noteWriteDone(sp.Stripe)
			}
			a.finishOne(r)
		}})
	}

	// Log append: NVRAM-speed, then batched sequential flush.
	st.buffered += imageBytes
	st.pending[sp.Stripe] = true
	if st.buffered >= a.cfg.PLog.bufferBytes {
		a.flushLogBuffer(pDisk)
	}
	if st.logged+st.buffered >= a.cfg.PLog.LogBytes*9/10 {
		a.startReintegration(pDisk)
	}
}

// flushLogBuffer writes the staged images sequentially to the log
// region (asynchronous; does not join any request's critical path).
func (a *Array) flushLogBuffer(d int) {
	st := a.plog[d]
	n := st.buffered
	if n == 0 {
		return
	}
	off := a.logRegionOffset() + st.logged
	st.buffered = 0
	st.logged += n
	a.logFlushes++
	a.issue(d, diskOp{write: true, off: off, n: n})
}

// startReintegration begins applying disk d's logged images to the
// parity in a batch: one sequential read of the log region, then a
// sorted sweep of parity read-modify-writes. Foreground I/O to disk d
// queues behind it — the interference the paper describes.
func (a *Array) startReintegration(d int) {
	st := a.plog[d]
	if st.reintegrating {
		return
	}
	// Make sure everything staged is on disk first (crash consistency
	// in the real scheme; here it just orders the work).
	a.flushLogBuffer(d)
	if st.logged == 0 {
		a.releaseStalled(d)
		return
	}
	st.reintegrating = true
	a.reintegrations++

	stripes := make([]int64, 0, len(st.pending))
	for s := range st.pending {
		stripes = append(stripes, s)
	}
	sort.Slice(stripes, func(i, j int) bool { return stripes[i] < stripes[j] })

	// Sequential log read.
	a.issue(d, diskOp{off: a.logRegionOffset(), n: st.logged, done: func() {
		a.reintegrateNext(d, stripes, 0)
	}})
}

// reintegrateNext applies the i-th logged stripe's parity update
// (read parity unit, write it back), then continues.
func (a *Array) reintegrateNext(d int, stripes []int64, i int) {
	st := a.plog[d]
	if i >= len(stripes) {
		// Pass complete: the log region is free again.
		st.logged = 0
		st.pending = make(map[int64]bool)
		st.reintegrating = false
		a.releaseStalled(d)
		return
	}
	stripe := stripes[i]
	off := a.geo.DiskOffset(stripe)
	unit := a.geo.StripeUnit
	a.issue(d, diskOp{off: off, n: unit, done: func() {
		a.issue(d, diskOp{write: true, off: off, n: unit, done: func() {
			a.reintegrateNext(d, stripes, i+1)
		}})
	}})
}

// releaseStalled restarts writes that were waiting for log space.
func (a *Array) releaseStalled(d int) {
	st := a.plog[d]
	waiters := st.stalled
	st.stalled = nil
	for _, w := range waiters {
		w()
	}
}
