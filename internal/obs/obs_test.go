package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestBucketMappingMonotonic(t *testing.T) {
	// Every value must fall inside its bucket's [bound, next bound)
	// range, and indices must never decrease as values grow.
	vals := []uint64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1000, 4095, 4096,
		1e6, 1e9, 1e12, 1 << 40, (1 << 62) + 12345, math.MaxInt64}
	last := -1
	for _, v := range vals {
		i := bucketOf(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range [0,%d)", v, i, numBuckets)
		}
		if i < last {
			t.Fatalf("bucketOf(%d) = %d decreased from %d", v, i, last)
		}
		last = i
		if lo := bucketBound(i); v < lo {
			t.Errorf("value %d below its bucket %d bound %d", v, i, lo)
		}
		if i+1 < numBuckets {
			if hi := bucketBound(i + 1); v >= hi {
				t.Errorf("value %d at or above next bucket bound %d", v, hi)
			}
		}
	}
}

func TestBucketResolution(t *testing.T) {
	// Log-linear with 16 sub-buckets per octave bounds relative error
	// at half a bucket width: ~3.2%.
	for _, v := range []uint64{100, 1_000, 50_000, 1_000_000, 123_456_789} {
		mid := bucketMid(bucketOf(v))
		relErr := math.Abs(float64(mid)-float64(v)) / float64(v)
		if relErr > 0.04 {
			t.Errorf("bucketMid(%d) = %d, relative error %.3f > 4%%", v, mid, relErr)
		}
	}
}

func TestQuantiles(t *testing.T) {
	var h Histogram
	// Uniform 1µs..1000µs: p50 ≈ 500µs, p95 ≈ 950µs, p99 ≈ 990µs.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	check := func(q, wantUS float64) {
		t.Helper()
		got := float64(s.Quantile(q)) / float64(time.Microsecond)
		if math.Abs(got-wantUS)/wantUS > 0.05 {
			t.Errorf("q%.2f = %.1fµs, want %.1fµs ± 5%%", q, got, wantUS)
		}
	}
	check(0.50, 500)
	check(0.95, 950)
	check(0.99, 990)
	if got := s.Max(); got != 1000*time.Microsecond {
		t.Errorf("max = %v, want 1ms", got)
	}
	if got := s.Mean(); got < 495*time.Microsecond || got > 505*time.Microsecond {
		t.Errorf("mean = %v, want ~500.5µs", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h Histogram
	empty := h.Snapshot()
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(42 * time.Millisecond)
	s := h.Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		got := s.Quantile(q)
		if got <= 0 || got > 42*time.Millisecond {
			t.Errorf("single-sample q%v = %v, want within (0, 42ms]", q, got)
		}
	}
	h.Observe(-time.Second) // negative counts as zero, must not panic
	if got := h.Count(); got != 2 {
		t.Errorf("count after negative observe = %d, want 2", got)
	}
}

func TestSnapshotMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Observe(time.Millisecond)
		b.Observe(time.Second)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(&sb)
	if sa.Count != 200 {
		t.Fatalf("merged count = %d, want 200", sa.Count)
	}
	if got := sa.Max(); got != time.Second {
		t.Errorf("merged max = %v, want 1s", got)
	}
	// Half the mass at 1ms, half at 1s: p25 in the low mode, p75 high.
	if got := sa.Quantile(0.25); got > 2*time.Millisecond {
		t.Errorf("merged p25 = %v, want ~1ms", got)
	}
	if got := sa.Quantile(0.75); got < 900*time.Millisecond {
		t.Errorf("merged p75 = %v, want ~1s", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var sum uint64
	for i := range s.Buckets {
		sum += s.Buckets[i]
	}
	if sum != workers*per {
		t.Fatalf("bucket sum = %d, want %d", sum, workers*per)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(4)
	if r.Len() != 0 {
		t.Fatalf("empty ring len = %d", r.Len())
	}
	for i := 0; i < 6; i++ {
		r.Record(Event{Op: "WRITE", Off: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 || r.Len() != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	// Oldest first, and only the most recent four survive the wrap.
	for i, e := range evs {
		if want := int64(i + 2); e.Off != want || e.Seq != uint64(want) {
			t.Errorf("event %d: off=%d seq=%d, want %d", i, e.Off, e.Seq, want)
		}
	}
}

func TestRegistryAndHandlers(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("read")
	if reg.Histogram("read") != h {
		t.Fatal("second lookup returned a different histogram")
	}
	h.Observe(3 * time.Millisecond)
	reg.Ring("ops", 8).Record(Event{Op: "READ", Len: 512, Total: 3 * time.Millisecond})

	rec := httptest.NewRecorder()
	HistogramHandler(Section{Name: "server", Reg: reg}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/histograms", nil))
	var hist map[string]map[string]Summary
	if err := json.Unmarshal(rec.Body.Bytes(), &hist); err != nil {
		t.Fatalf("histogram dump is not JSON: %v", err)
	}
	sum := hist["server"]["read"]
	if sum.Count != 1 || sum.P95US <= 0 {
		t.Fatalf("histogram dump: %+v, want count=1 and positive p95", sum)
	}

	rec = httptest.NewRecorder()
	TraceHandler(Section{Name: "server", Reg: reg}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	var traces map[string]map[string][]Event
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatalf("trace dump is not JSON: %v", err)
	}
	if evs := traces["server"]["ops"]; len(evs) != 1 || evs[0].Op != "READ" {
		t.Fatalf("trace dump: %+v, want one READ event", traces)
	}
}

func TestFlatten(t *testing.T) {
	for field, want := range map[string]string{
		"Reads": "reads", "DirtyStripes": "dirty_stripes", "NVRAMRecovered": "nvram_recovered",
		"NVRAMPersists": "nvram_persists", "ReadP50": "read_p50", "ID": "id",
	} {
		if got := KeyName(field); got != want {
			t.Errorf("KeyName(%q) = %q, want %q", field, got, want)
		}
	}

	type Inner struct{ FullStripeWrites uint64 } // an embedded struct's keys are the outer's
	got := map[string]int64{"other.kept": 1}
	Flatten(got, "core.", struct {
		Writes       uint64
		DamageBytes  int64
		Recovered    bool
		Healthy      bool
		ScrubIdle    time.Duration
		DeadDisks    []int
		Ratio        float64 // not carried
		unexported   int
		Quarantined  int
		SmallCounter uint8
	}{
		Writes: 3, DamageBytes: -2, Recovered: true, ScrubIdle: time.Millisecond,
		DeadDisks: []int{1, 4}, Ratio: 0.5, unexported: 9, Quarantined: 5, SmallCounter: 6,
	}, struct {
		Inner
		Hedged uint64
	}{Inner{7}, 8})
	want := map[string]int64{
		"other.kept": 1, "core.full_stripe_writes": 7, "core.hedged": 8,
		"core.writes": 3, "core.damage_bytes": -2, "core.recovered": 1, "core.healthy": 0,
		"core.scrub_idle_ns": 1e6, "core.dead_disks": 2, "core.dead_disks_mask": 1<<1 | 1<<4,
		"core.quarantined": 5, "core.small_counter": 6,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Flatten:\n got %v\nwant %v", got, want)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := 37 * time.Microsecond
		for pb.Next() {
			h.Observe(d)
			d += time.Microsecond
		}
	})
}
