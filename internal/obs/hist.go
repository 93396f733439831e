// Package obs is the live-path observability kit: lock-free
// log-bucketed latency histograms with percentile extraction, a
// fixed-size ring of per-operation trace events, and a named registry
// with JSON HTTP handlers. The paper's entire argument is a latency
// distribution — AFRAID is judged by mean and 95th-percentile response
// time per trace (§4) — and this package makes those distributions
// observable on the production store path, not just in the simulator.
//
// Recording is allocation-free: Observe is a bucket index computation
// plus four atomic adds, cheap enough to leave on permanently in the
// request hot path.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout is HDR-style log-linear over nanoseconds. Values below
// subCount land in unit-wide buckets; above that, each power-of-two
// octave is split into subCount equal sub-buckets, giving ~6% relative
// resolution from nanoseconds to the full range of time.Duration with a
// fixed array of 976 counters (7.6 KB) per histogram.
const (
	subBits    = 4
	subCount   = 1 << subBits
	numBuckets = (63 - subBits + 2) * subCount
)

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns uint64) int {
	if ns < subCount {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 // >= subBits
	sub := int(ns>>uint(exp-subBits)) & (subCount - 1)
	return subCount + (exp-subBits)*subCount + sub
}

// bucketBound returns the inclusive lower bound of a bucket.
func bucketBound(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	k := i - subCount
	exp := subBits + k/subCount
	sub := k % subCount
	return uint64(subCount+sub) << uint(exp-subBits)
}

// bucketMid returns a representative value for a bucket: the midpoint
// of its range, which bounds quantile error at half the bucket width
// (~3% relative).
func bucketMid(i int) uint64 {
	lo := bucketBound(i)
	width := uint64(1)
	if i >= subCount {
		exp := subBits + (i-subCount)/subCount
		width = uint64(1) << uint(exp-subBits)
	}
	return lo + width/2
}

// Histogram is a lock-free latency histogram. The zero value is ready
// to use; all methods are safe for concurrent use.
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	maxNS   atomic.Uint64
	buckets [numBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	var ns uint64
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot copies the histogram's counters at one (approximate) moment.
// Concurrent Observes may straddle the copy; each observation is still
// counted exactly once across successive snapshots.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	s.Count = h.count.Load()
	s.SumNS = h.sumNS.Load()
	s.MaxNS = h.maxNS.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Summary condenses the histogram into the fixed percentile set the
// debug endpoints and STAT responses report. Durations are microseconds
// because device-class latencies sit between 10µs (RAM-backed tests)
// and tens of ms (loaded spindles) — ns would drown the reader in
// digits, ms would round the interesting cases to zero.
func (h *Histogram) Summary() Summary {
	s := h.Snapshot()
	return s.Summary()
}

// Snapshot is an immutable copy of a Histogram, safe to merge and query
// without synchronization.
type Snapshot struct {
	Count   uint64
	SumNS   uint64
	MaxNS   uint64
	Buckets [numBuckets]uint64
}

// Merge folds another snapshot into this one, as if every observation
// had landed in a single histogram.
func (s *Snapshot) Merge(o *Snapshot) {
	s.Count += o.Count
	s.SumNS += o.SumNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile returns the value at quantile q in [0, 1], or 0 for an empty
// snapshot. The result is the midpoint of the bucket holding the rank,
// so the relative error is bounded by half the bucket width.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen uint64
	for i := range s.Buckets {
		seen += s.Buckets[i]
		if seen >= rank {
			mid := bucketMid(i)
			if mid > s.MaxNS && s.MaxNS > 0 {
				mid = s.MaxNS // don't report beyond the observed max
			}
			return time.Duration(mid)
		}
	}
	return time.Duration(s.MaxNS)
}

// Mean returns the arithmetic mean of the observations, exact (not
// bucketed) because the sum is tracked separately.
func (s *Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Max returns the largest observation.
func (s *Snapshot) Max() time.Duration { return time.Duration(s.MaxNS) }

// Summary is the JSON shape served by the debug endpoints.
type Summary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

// Summary condenses the snapshot; see Histogram.Summary.
func (s *Snapshot) Summary() Summary {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return Summary{
		Count:  s.Count,
		MeanUS: us(s.Mean()),
		P50US:  us(s.Quantile(0.50)),
		P95US:  us(s.Quantile(0.95)),
		P99US:  us(s.Quantile(0.99)),
		MaxUS:  us(s.Max()),
	}
}
