package sim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Mean accumulates a running mean and maximum.
type Mean struct {
	n    uint64
	mean float64
	max  float64
}

// Add records one observation.
func (m *Mean) Add(x float64) {
	m.n++
	if m.n == 1 || x > m.max {
		m.max = x
	}
	m.mean += (x - m.mean) / float64(m.n)
}

// N returns the number of observations.
func (m *Mean) N() uint64 { return m.n }

// Mean returns the sample mean, or 0 with no observations.
func (m *Mean) Mean() float64 { return m.mean }

// Max returns the largest observation (0 if none).
func (m *Mean) Max() float64 { return m.max }

// DurationStats accumulates duration observations with exact quantiles
// (it retains samples; simulations here produce at most a few hundred
// thousand requests, so this is cheap and precise).
type DurationStats struct {
	mean    Mean
	samples []time.Duration
	sorted  bool
}

// Add records one duration observation.
func (d *DurationStats) Add(v time.Duration) {
	d.mean.Add(float64(v))
	d.samples = append(d.samples, v)
	d.sorted = false
}

// N returns the number of observations.
func (d *DurationStats) N() uint64 { return d.mean.N() }

// Mean returns the mean duration.
func (d *DurationStats) Mean() time.Duration { return time.Duration(d.mean.Mean()) }

// Max returns the maximum duration.
func (d *DurationStats) Max() time.Duration { return time.Duration(d.mean.Max()) }

// Quantile returns the q-th quantile (0 <= q <= 1) of the observations,
// or 0 with no observations.
func (d *DurationStats) Quantile(q float64) time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Slice(d.samples, func(i, j int) bool { return d.samples[i] < d.samples[j] })
		d.sorted = true
	}
	if q <= 0 {
		return d.samples[0]
	}
	if q >= 1 {
		return d.samples[len(d.samples)-1]
	}
	idx := int(q * float64(len(d.samples)-1))
	return d.samples[idx]
}

// String summarizes the distribution.
func (d *DurationStats) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		d.N(), d.Mean().Round(time.Microsecond),
		d.Quantile(0.5).Round(time.Microsecond),
		d.Quantile(0.95).Round(time.Microsecond),
		d.Quantile(0.99).Round(time.Microsecond),
		d.Max().Round(time.Microsecond))
}

// TimeWeighted integrates a piecewise-constant value over virtual time,
// yielding its time-average. It is used for parity-lag (bytes) and for
// unprotected-time accounting.
type TimeWeighted struct {
	last     time.Duration
	value    float64
	integral float64 // value * seconds
	started  bool
	// nonZero accumulates the total time during which value > 0.
	nonZero time.Duration
}

// Set records that the tracked value becomes v at virtual time now.
func (t *TimeWeighted) Set(now time.Duration, v float64) {
	if !t.started {
		t.last = now
		t.value = v
		t.started = true
		return
	}
	if now < t.last {
		panic(fmt.Sprintf("sim: TimeWeighted time going backwards: %v < %v", now, t.last))
	}
	dt := now - t.last
	t.integral += t.value * dt.Seconds()
	if t.value > 0 {
		t.nonZero += dt
	}
	t.last = now
	t.value = v
}

// Add adjusts the tracked value by delta at virtual time now.
func (t *TimeWeighted) Add(now time.Duration, delta float64) {
	t.Set(now, t.value+delta)
}

// Value returns the current tracked value.
func (t *TimeWeighted) Value() float64 { return t.value }

// Average returns the time-average up to virtual time now without
// terminating the accumulator.
func (t *TimeWeighted) Average(now time.Duration) float64 {
	if !t.started || now == 0 {
		return 0
	}
	integral := t.integral + t.value*(now-t.last).Seconds()
	return integral / now.Seconds()
}

// NonZeroTimeAt returns total positive-valued time including the open
// interval ending at now.
func (t *TimeWeighted) NonZeroTimeAt(now time.Duration) time.Duration {
	nz := t.nonZero
	if t.started && t.value > 0 && now > t.last {
		nz += now - t.last
	}
	return nz
}

// GeometricMean returns the geometric mean of xs. All values must be
// positive; it returns 0 for an empty slice.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("sim: GeometricMean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
