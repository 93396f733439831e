package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical outputs from different seeds", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestFloat64RangeQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt63nRange(t *testing.T) {
	r := NewRNG(9)
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Int63n(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Int63n(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Int63n(7) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	var m Mean
	for i := 0; i < 200000; i++ {
		m.Add(r.Exp(5.0))
	}
	if math.Abs(m.Mean()-5.0) > 0.1 {
		t.Fatalf("Exp mean = %g, want ~5.0", m.Mean())
	}
}

func TestParetoBoundsAndTail(t *testing.T) {
	r := NewRNG(13)
	var m Mean
	for i := 0; i < 100000; i++ {
		v := r.Pareto(2.0, 1.5)
		if v < 2.0 {
			t.Fatalf("Pareto below xm: %g", v)
		}
		m.Add(v)
	}
	// alpha=1.5, xm=2 has mean alpha*xm/(alpha-1) = 6.
	if m.Mean() < 4 || m.Mean() > 9 {
		t.Fatalf("Pareto mean = %g, want near 6", m.Mean())
	}
}

func TestGeometricMeanValue(t *testing.T) {
	r := NewRNG(17)
	var m Mean
	for i := 0; i < 100000; i++ {
		v := r.Geometric(8.0)
		if v < 1 {
			t.Fatalf("Geometric < 1: %d", v)
		}
		m.Add(float64(v))
	}
	if math.Abs(m.Mean()-8.0) > 0.3 {
		t.Fatalf("Geometric mean = %g, want ~8", m.Mean())
	}
}

func TestExpDurationPositive(t *testing.T) {
	r := NewRNG(19)
	for i := 0; i < 1000; i++ {
		if d := r.ExpDuration(time.Second); d < 0 {
			t.Fatalf("negative duration %v", d)
		}
	}
}

func TestZipfSkewsTowardLowRanks(t *testing.T) {
	r := NewRNG(23)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("rank 0 count %d not greater than rank 50 count %d", counts[0], counts[50])
	}
	if counts[0] <= counts[99] {
		t.Fatalf("rank 0 count %d not greater than rank 99 count %d", counts[0], counts[99])
	}
}
