// Package idle is the rule that decides when AFRAID's background work may
// start: the paper began parity updates "once the array had been completely
// idle for 100ms" (§3). Completely idle means nothing outstanding: the
// array is idle from the completion that left no foreground operation in
// flight, and background work is due one delay later. The store's scrubber,
// the tier's migrator and the simulator's array all ask the same Tracker.
package idle

import (
	"sync"
	"time"
)

// DefaultDelay is the paper's idle threshold.
const DefaultDelay = 100 * time.Millisecond

// Tracker is one array's idle rule: foreground operations call Start and
// End, and background work is due Delay after the last End that left none
// outstanding. It is safe for concurrent use.
type Tracker struct {
	delay time.Duration

	mu          sync.Mutex
	outstanding int
	since       time.Time // the last End that left nothing outstanding
}

// New returns the rule for an array idle since now; delay <= 0 selects
// DefaultDelay.
func New(delay time.Duration, now time.Time) *Tracker {
	if delay <= 0 {
		delay = DefaultDelay
	}
	return &Tracker{delay: delay, since: now}
}

// Start records a foreground operation beginning.
func (t *Tracker) Start() {
	t.mu.Lock()
	t.outstanding++
	t.mu.Unlock()
}

// End records a foreground operation completing at now.
func (t *Tracker) End(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.outstanding <= 0 {
		panic("idle: End without Start")
	}
	t.outstanding--
	if t.outstanding == 0 && now.After(t.since) {
		t.since = now
	}
}

// Due returns the instant background work may start, assuming no further
// foreground operation: Delay after the last completion. ok is false while
// an operation is outstanding.
func (t *Tracker) Due() (due time.Time, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.outstanding > 0 {
		return time.Time{}, false
	}
	return t.since.Add(t.delay), true
}

// Idle reports whether background work may run at now.
func (t *Tracker) Idle(now time.Time) bool {
	due, ok := t.Due()
	return ok && !now.Before(due)
}

// Run calls step whenever the rule may have come due, until stop closes:
// at Due, when wake receives, and — while an operation is outstanding or
// Due has passed — one Delay after the last call. step asks the rule (or a
// pressure valve of its own) whether to work. now is the caller's clock.
func (t *Tracker) Run(now func() time.Time, stop, wake <-chan struct{}, step func()) {
	for {
		wait := t.delay
		if due, ok := t.Due(); ok {
			if d := due.Sub(now()); d > 0 {
				wait = d
			}
		}
		timer := time.NewTimer(wait)
		select {
		case <-stop:
			timer.Stop()
			return
		case <-wake:
		case <-timer.C:
		}
		timer.Stop()
		step()
	}
}
