package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	for _, x := range []float64{1, 2, 3, 4, 5} {
		m.Add(x)
	}
	if m.N() != 5 {
		t.Fatalf("N = %d", m.N())
	}
	if m.Mean() != 3 {
		t.Fatalf("Mean = %g, want 3", m.Mean())
	}
	if m.Max() != 5 {
		t.Fatalf("Max = %g, want 5", m.Max())
	}
}

func TestMeanMatchesDirectComputation(t *testing.T) {
	prop := func(xs []float64) bool {
		var m Mean
		sum := 0.0
		clean := xs[:0]
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			clean = append(clean, x)
		}
		if len(clean) == 0 {
			return true
		}
		for _, x := range clean {
			m.Add(x)
			sum += x
		}
		want := sum / float64(len(clean))
		return math.Abs(m.Mean()-want) <= 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationStatsQuantiles(t *testing.T) {
	var d DurationStats
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	if d.Max() != 100*time.Millisecond {
		t.Fatalf("max = %v", d.Max())
	}
	p50 := d.Quantile(0.5)
	if p50 < 45*time.Millisecond || p50 > 55*time.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}
	if d.Quantile(0) != time.Millisecond {
		t.Fatalf("q0 = %v", d.Quantile(0))
	}
	if d.Quantile(1) != 100*time.Millisecond {
		t.Fatalf("q1 = %v", d.Quantile(1))
	}
}

func TestDurationStatsEmpty(t *testing.T) {
	var d DurationStats
	if d.Mean() != 0 || d.Quantile(0.5) != 0 || d.N() != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestDurationStatsAddAfterQuantile(t *testing.T) {
	var d DurationStats
	d.Add(2 * time.Millisecond)
	_ = d.Quantile(0.5)
	d.Add(1 * time.Millisecond)
	if d.Quantile(0) != time.Millisecond {
		t.Fatal("quantile stale after Add following Quantile")
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 10)
	tw.Set(2*time.Second, 20)          // 10 for 2s
	tw.Set(4*time.Second, 0)           // 20 for 2s
	avg := tw.Average(8 * time.Second) // 0 for 4s
	want := (10.0*2 + 20.0*2 + 0.0*4) / 8
	if math.Abs(avg-want) > 1e-9 {
		t.Fatalf("avg = %g, want %g", avg, want)
	}
}

func TestTimeWeightedNonZeroTime(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 0)
	tw.Set(1*time.Second, 5)
	tw.Set(3*time.Second, 0)
	tw.Set(10*time.Second, 0)
	if nz := tw.NonZeroTimeAt(10 * time.Second); nz != 2*time.Second {
		t.Fatalf("non-zero time = %v, want 2s", nz)
	}
	tw.Set(11*time.Second, 7)
	if nz := tw.NonZeroTimeAt(15 * time.Second); nz != 6*time.Second {
		t.Fatalf("non-zero time at 15s = %v, want 6s", nz)
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var tw TimeWeighted
	tw.Set(5*time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards time did not panic")
		}
	}()
	tw.Set(4*time.Second, 2)
}

func TestGeometricMeanKnown(t *testing.T) {
	got := GeometricMean([]float64{1, 4, 16})
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean = %g, want 4", got)
	}
	if GeometricMean(nil) != 0 {
		t.Fatal("geomean of empty should be 0")
	}
}

func TestGeometricMeanScaleInvariance(t *testing.T) {
	prop := func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = 0.1 + r.Float64()*10
		}
		g := GeometricMean(xs)
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 3
		}
		g2 := GeometricMean(scaled)
		return math.Abs(g2-3*g) < 1e-9*(1+g2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
