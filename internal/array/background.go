package array

import (
	"time"

	"afraid/internal/avail"
)

// onIdleClock is the simulator's virtual time d on the idle rule's clock,
// which starts at the zero time.Time.
func onIdleClock(d time.Duration) time.Time { return time.Time{}.Add(d) }

// maybeArmIdleTimer schedules the idle-detection check after the array
// becomes quiescent with unredundant stripes outstanding. Only a preset
// that defers a parity (n < m) relies on the background rebuilder.
func (a *Array) maybeArmIdleTimer() {
	if a.sync == a.parities || a.rebuilding || a.marks.Count() == 0 {
		return
	}
	if a.deg.failed >= 0 {
		return // parity cannot be rebuilt around a missing member
	}
	due, ok := a.tracker.Due()
	if !ok {
		return
	}
	at := due.Sub(onIdleClock(0))
	if a.idleTimer != nil {
		a.idleTimer.Stop()
	}
	now := a.eng.Now()
	if at < now {
		at = now
	}
	// Stop cannot cancel an event the engine has already popped for
	// execution (the timer-cancel contract), so a stale callback may
	// still run after this re-arm. Hand the callback the current
	// generation; idleFired ignores fires from superseded arms.
	a.idleGen++
	gen := a.idleGen
	a.idleTimer = a.eng.At(at, func() { a.idleFired(gen) })
}

// idleFired begins a background parity-rebuild episode if the array is
// still quiescent and the fire is from the most recent arm.
func (a *Array) idleFired(gen uint64) {
	if gen != a.idleGen {
		return // stale fire from a superseded arm
	}
	a.idleTimer = nil
	if a.rebuilding || a.marks.Count() == 0 {
		return
	}
	if _, idle := a.tracker.Due(); !idle {
		return // a request slipped in; its completion will re-arm
	}
	a.beginEpisode(false)
}

// checkDirtyThreshold implements the bound on unprotected stripes: when
// more than DirtyThreshold stripes are unredundant, start rebuilding at
// once, even under load ("automatically starting a parity update when
// more than 20 stripes are unprotected").
func (a *Array) checkDirtyThreshold() {
	th := a.cfg.Policy.DirtyThreshold
	if th <= 0 || a.rebuilding || a.deg.failed >= 0 {
		return
	}
	// The threshold is in stripes; scale to marking slots.
	if a.marks.Count() > int64(th*a.gran) {
		a.beginEpisode(true)
	}
}

// beginEpisode starts a rebuild episode. Forced episodes (threshold or
// MTTDL_x revert) run regardless of foreground load; idle episodes stop
// at the next foreground arrival, preempting between stripes.
func (a *Array) beginEpisode(forced bool) {
	if a.rebuilding {
		return
	}
	a.rebuilding = true
	a.forced = forced
	a.fgArrived = false
	a.episodes++
	a.rebuildNext()
}

// endEpisode closes the current episode and re-arms idle detection.
func (a *Array) endEpisode(interruptedByFg bool) {
	a.rebuilding = false
	a.forced = false
	if interruptedByFg {
		a.interrupted++
	}
	a.maybeArmIdleTimer()
}

// episodeDone decides whether to continue with another stripe.
func (a *Array) episodeDone(lastStripe int64) {
	if a.marks.Count() == 0 {
		a.endEpisode(false)
		return
	}
	if a.forced {
		// Forced episodes run until the triggering condition clears.
		th := a.cfg.Policy.DirtyThreshold
		switch {
		case a.reverted:
			// Revert flushes everything.
		case th > 0 && a.marks.Count() <= int64(th*a.gran):
			a.endEpisode(false)
			return
		}
		a.rebuildNext()
		return
	}
	if a.fgArrived {
		// Foreground work arrived: preempt between stripes unless the
		// next dirty stripe is adjacent and coalescing is enabled.
		if a.cfg.Policy.CoalesceAdjacent {
			if next, ok := a.marks.Next(a.cursor); ok && next == lastStripe+1 {
				a.fgArrived = false
				a.rebuildNext()
				return
			}
		}
		a.endEpisode(true)
		return
	}
	a.rebuildNext()
}

// rebuildNext picks the next dirty marking slot whose stripe has no
// in-flight foreground write and rebuilds its deferred parity slices:
// read the slice from every data unit, encode (free in simulation),
// write the parity slices. With the default granularity the slice is
// the whole stripe unit.
func (a *Array) rebuildNext() {
	slot, ok := a.pickSlot()
	if !ok {
		// Every dirty stripe currently has foreground writes in
		// flight; those writes will re-mark or complete, and idle
		// detection will bring us back.
		a.endEpisode(a.fgArrived)
		return
	}
	stripe := a.stripeOfSlot(slot)

	// Coalesce a run of adjacent dirty slices of the same stripe into
	// one transfer: with sub-stripe marking, paying a positioning per
	// 1/M slice would defeat the point.
	runLen := int64(1)
	for slot+runLen < a.marks.Stripes() &&
		a.stripeOfSlot(slot+runLen) == stripe &&
		a.marks.IsMarked(slot+runLen) {
		runLen++
	}
	a.cursor = slot + runLen
	a.lockStripe(stripe)

	slice := a.geo.StripeUnit / int64(a.gran)
	n := slice * runLen
	off := a.geo.DiskOffset(stripe) + (slot%int64(a.gran))*slice
	deps := a.geo.DataDisks()
	for i := 0; i < a.geo.DataDisks(); i++ {
		d := a.geo.DataDisk(stripe, i)
		a.issue(d, diskOp{off: off, n: n, done: func() {
			deps--
			if deps == 0 {
				a.writeRebuiltParity(slot, runLen, stripe, off, n)
			}
		}})
	}
}

// writeRebuiltParity writes the m−n parity slices the preset defers, Q
// before P, and closes out the slot run once they have all landed.
func (a *Array) writeRebuiltParity(slot, runLen, stripe int64, off, n int64) {
	writes := a.parities - a.sync
	done := func() {
		if writes--; writes > 0 {
			return
		}
		for s := slot; s < slot+runLen; s++ {
			a.markClean(s)
		}
		a.rebuilt++
		if a.forced {
			a.forcedBuilt++
		}
		a.unlockStripe(stripe)
		a.updateMTTDLPolicy()
		a.episodeDone(slot + runLen - 1)
	}
	for j := a.parities - 1; j >= a.sync; j-- {
		a.issue(a.parityDisk(stripe, j), diskOp{write: true, off: off, n: n, done: done})
	}
}

// pickSlot returns the next dirty marking slot whose stripe has no
// active foreground writes, scanning from the round-robin cursor.
func (a *Array) pickSlot() (int64, bool) {
	n := a.marks.Count()
	from := a.cursor
	for i := int64(0); i < n; i++ {
		s, ok := a.marks.Next(from)
		if !ok {
			return 0, false
		}
		if a.activeWrites[a.stripeOfSlot(s)] == 0 {
			return s, true
		}
		from = s + 1
		if from >= a.marks.Stripes() {
			from = 0
		}
	}
	return 0, false
}

// updateConservative implements the §5 conservative-start refinement:
// the array stays in RAID 5 mode until the observed idle fraction shows
// the workload leaves room for background rebuilds.
func (a *Array) updateConservative() {
	if !a.conserving {
		return
	}
	now := a.eng.Now()
	if now < time.Second {
		return // too little evidence either way
	}
	if 1-a.busyTW.Average(now) >= conservativeIdleFrac {
		a.conserving = false
		a.reverted = false
		a.revertedTime += now - a.revertedAt
	}
}

// lockStripe blocks foreground access to a stripe during its rebuild.
func (a *Array) lockStripe(stripe int64) {
	if _, locked := a.rebuildLocked[stripe]; locked {
		panic("array: stripe locked twice")
	}
	a.rebuildLocked[stripe] = []func(){}
}

// unlockStripe releases the stripe and runs any blocked foreground work.
func (a *Array) unlockStripe(stripe int64) {
	waiters, locked := a.rebuildLocked[stripe]
	if !locked {
		panic("array: unlock of unlocked stripe")
	}
	delete(a.rebuildLocked, stripe)
	for _, w := range waiters {
		w()
	}
}

// The MTTDL_x policy reverts *before* the achieved MTTDL reaches the
// target (revertMargin) and resumes AFRAID behaviour only once it is
// comfortably clear again (resumeMargin). The margins absorb the
// exposure that keeps accruing between the decision to revert and the
// moment the forced rebuild drains the dirty stripes; without them the
// steady state oscillates right at the target and overshoots it. The
// paper reports the same discipline's outcome: "the disk-related MTTDL
// was never more than 5% below its target".
const (
	revertMargin = 1.35
	resumeMargin = 1.8
)

// updateMTTDLPolicy implements the MTTDL_x policy: compute the
// disk-related MTTDL achieved so far from the measured unprotected-time
// fraction, revert to RAID 5 when approaching the target (also flushing
// pending parity), and return to AFRAID behaviour once the goal is
// comfortably met again.
func (a *Array) updateMTTDLPolicy() {
	target := a.cfg.Policy.TargetMTTDL
	if a.cfg.mode != AFRAID || target <= 0 || a.conserving {
		return
	}
	now := a.eng.Now()
	if now == 0 {
		return
	}
	frac := float64(a.lag.NonZeroTimeAt(now)) / float64(now)
	if frac > 1 {
		frac = 1
	}
	achieved := avail.Default().AFRAIDDiskMTTDL(frac)
	if !a.reverted {
		if achieved < target*revertMargin {
			a.reverted = true
			a.revertedAt = now
			a.reverts++
			// Start the parity update for any unprotected stripes now.
			if a.marks.Count() > 0 && !a.rebuilding {
				a.beginEpisode(true)
			}
		}
		return
	}
	// Re-enable AFRAID once the achieved MTTDL is comfortably clear of
	// the target and no stripes remain exposed.
	if achieved > target*resumeMargin && a.marks.Count() == 0 {
		a.revertedTime += now - a.revertedAt
		a.reverted = false
	}
}
