package sim

import (
	"math"
	"time"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (xorshift64* core seeded through splitmix64). It is deliberately
// self-contained so simulation results are reproducible across Go
// releases, unlike math/rand's unspecified stream.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded from seed. Any seed, including zero,
// produces a usable stream.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to a state derived from seed via splitmix64.
func (r *RNG) Seed(seed uint64) {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x853c49e6748fea9b
	}
	r.state = z
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ExpDuration returns an exponentially distributed duration with the
// given mean.
func (r *RNG) ExpDuration(mean time.Duration) time.Duration {
	return time.Duration(r.Exp(float64(mean)))
}

// Pareto returns a bounded Pareto value with shape alpha and minimum xm.
// Heavy-tailed idle periods in disk workloads are well described by
// Pareto-like distributions; alpha in (1, 2) gives the burstiness the
// paper relies on.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// ParetoDuration returns a Pareto-distributed duration with minimum xm.
func (r *RNG) ParetoDuration(xm time.Duration, alpha float64) time.Duration {
	return time.Duration(r.Pareto(float64(xm), alpha))
}

// Geometric returns a geometrically distributed count >= 1 with the given
// mean (mean must be >= 1).
func (r *RNG) Geometric(mean float64) int {
	if mean < 1 {
		mean = 1
	}
	p := 1 / mean
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	n := int(math.Ceil(math.Log(u) / math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}

// Zipf draws from {0, ..., n-1} with probability proportional to
// 1/(rank+1)^s, using inverse-CDF on a precomputed table.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over n items with skew s (> 0).
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Next returns the next sample in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
