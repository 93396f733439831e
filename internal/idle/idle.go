// Package idle provides the idleness-detection policies that decide when
// AFRAID's background parity rebuild may start. The paper's default is a
// timer-based detector with a 100 ms threshold ("AFRAID started
// processing parity updates once the array had been completely idle for
// 100ms"); an adaptive backoff detector in the style of Golding et al.,
// "Idleness is not sloth" (USENIX 1995), is provided as an alternative.
package idle

import (
	"fmt"
	"time"
)

// DefaultDelay is the paper's idle-detection threshold.
const DefaultDelay = 100 * time.Millisecond

// Detector decides how long the array must be quiescent before
// background work may begin, and learns from the outcome of each
// background attempt.
type Detector interface {
	// Delay returns the current quiescence threshold.
	Delay() time.Duration
	// Observe reports the outcome of a background-work episode:
	// interrupted=true means foreground work arrived while the episode
	// was running (the idle prediction was wrong).
	Observe(interrupted bool)
	// Name identifies the detector.
	Name() string
}

// Timer is the fixed-threshold detector.
type Timer struct {
	D time.Duration
}

// NewTimer returns a Timer detector; d <= 0 selects DefaultDelay.
func NewTimer(d time.Duration) *Timer {
	if d <= 0 {
		d = DefaultDelay
	}
	return &Timer{D: d}
}

// Delay returns the fixed threshold.
func (t *Timer) Delay() time.Duration { return t.D }

// Observe is a no-op for the fixed detector.
func (t *Timer) Observe(bool) {}

// Name returns "timer".
func (t *Timer) Name() string { return "timer" }

// Adaptive is a multiplicative-increase / multiplicative-decrease
// backoff detector: being interrupted doubles the threshold (the array
// was not as idle as predicted), a completed episode halves it, within
// [Min, Max].
type Adaptive struct {
	Min, Max time.Duration
	cur      time.Duration
}

// NewAdaptive returns an adaptive detector starting at start, bounded to
// [min, max].
func NewAdaptive(min, start, max time.Duration) *Adaptive {
	if min <= 0 || start < min || max < start {
		panic(fmt.Sprintf("idle: invalid adaptive bounds min=%v start=%v max=%v", min, start, max))
	}
	return &Adaptive{Min: min, Max: max, cur: start}
}

// Delay returns the current threshold.
func (a *Adaptive) Delay() time.Duration { return a.cur }

// Observe adjusts the threshold based on the episode outcome.
func (a *Adaptive) Observe(interrupted bool) {
	if interrupted {
		a.cur *= 2
		if a.cur > a.Max {
			a.cur = a.Max
		}
	} else {
		a.cur /= 2
		if a.cur < a.Min {
			a.cur = a.Min
		}
	}
}

// Name returns "adaptive".
func (a *Adaptive) Name() string { return "adaptive" }

// Predictor is a moving-average idle-period predictor in the spirit of
// [Golding95]: it tracks an exponentially-weighted moving average of
// observed idle-period lengths and withholds background work when the
// current idle period is predicted to be too short to be useful. (The
// paper ran such a predictor but ignored its output, using the plain
// 100 ms timer; the ablation harness compares both.)
type Predictor struct {
	// Base is the minimum quiescence threshold (default 100 ms).
	Base time.Duration
	// MinUseful is the predicted idle length below which background
	// work is not worth starting (default 3x Base).
	MinUseful time.Duration
	// Max bounds the threshold growth (default 20x Base).
	Max time.Duration

	ewma    time.Duration
	samples int
}

// NewPredictor returns a predictor with the given base threshold
// (<= 0 selects DefaultDelay).
func NewPredictor(base time.Duration) *Predictor {
	if base <= 0 {
		base = DefaultDelay
	}
	return &Predictor{Base: base, MinUseful: 3 * base, Max: 20 * base}
}

// RecordIdlePeriod feeds the length of a completed idle period.
func (p *Predictor) RecordIdlePeriod(d time.Duration) {
	if p.samples == 0 {
		p.ewma = d
	} else {
		// EWMA with alpha = 1/4.
		p.ewma = (3*p.ewma + d) / 4
	}
	p.samples++
}

// Delay returns the quiescence threshold: the base delay when idle
// periods are predicted long enough to be useful, otherwise a raised
// threshold that effectively skips the short idles.
func (p *Predictor) Delay() time.Duration {
	if p.samples < 4 || p.ewma >= p.MinUseful {
		return p.Base
	}
	// Predicted-short idle periods: require most of the predicted
	// length to elapse first, so only the tail of unusually long
	// periods triggers background work.
	d := p.ewma
	if d < p.Base {
		d = p.Base
	}
	if d > p.Max {
		d = p.Max
	}
	return d
}

// Observe implements Detector; an interruption means the prediction
// overestimated, so it drags the average down.
func (p *Predictor) Observe(interrupted bool) {
	if interrupted && p.samples > 0 {
		p.ewma = p.ewma * 3 / 4
	}
}

// Name returns "predictor".
func (p *Predictor) Name() string { return "predictor" }

// IdleRecorder is implemented by detectors that learn from completed
// idle-period lengths.
type IdleRecorder interface {
	RecordIdlePeriod(time.Duration)
}

// Tracker maintains the array's quiescence state: the number of
// outstanding foreground operations and the time the array last became
// idle. The simulator consults it to schedule the background task.
type Tracker struct {
	outstanding int
	idleSince   time.Duration
	everActive  bool
}

// Start records a foreground operation beginning at virtual time now.
func (t *Tracker) Start(now time.Duration) {
	t.outstanding++
	t.everActive = true
}

// End records a foreground operation completing at now.
func (t *Tracker) End(now time.Duration) {
	if t.outstanding <= 0 {
		panic("idle: End without Start")
	}
	t.outstanding--
	if t.outstanding == 0 {
		t.idleSince = now
	}
}

// Outstanding returns the number of in-flight foreground operations.
func (t *Tracker) Outstanding() int { return t.outstanding }

// Idle reports whether the array is quiescent at now and, if so, for how
// long it has been.
func (t *Tracker) Idle(now time.Duration) (time.Duration, bool) {
	if t.outstanding > 0 {
		return 0, false
	}
	return now - t.idleSince, true
}

// EligibleAt returns the earliest virtual time at which a detector with
// the given delay would allow background work, assuming no further
// foreground activity. ok is false while requests are outstanding.
func (t *Tracker) EligibleAt(d Detector) (time.Duration, bool) {
	if t.outstanding > 0 {
		return 0, false
	}
	return t.idleSince + d.Delay(), true
}
