package bench

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"afraid/internal/core"
)

// TestShortRuns runs every workload the way the driver does, untraced
// and traced, with 1 s windows. It asserts what must hold on any
// machine — every read verified, the array redundant and consistent at
// the end, every metric of the table present, the layers' shares
// summing to the request — and no bound.
func TestShortRuns(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(Config{Workload: name, Seed: 1996, Seconds: 1, Short: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(EndToEnd) {
				t.Fatalf("untraced run printed %d metrics, want the %d end-to-end ones", len(rep.Metrics), len(EndToEnd))
			}
			for _, m := range EndToEnd {
				if v := rep.Metrics[m.Name]; !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}

			spans := t.TempDir() + "/spans.json"
			tr, err := Run(Config{Workload: name, Seed: 1996, Seconds: 1, Short: true, Trace: true, SpanFile: spans})
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct {
				t.Fatalf("traced run: attempted=%d failed=%d", tr.Attempted, tr.Failed)
			}
			if len(tr.Metrics) != len(PerLayer) {
				t.Fatalf("traced run printed %d metrics, want the %d per-layer ones", len(tr.Metrics), len(PerLayer))
			}
			var sum float64
			for _, part := range []string{"server.self_us_op", "core.self_us_op", "tier.self_us_op",
				"cluster.self_us_op", "device.busy_us_op", "nvram.busy_us_op"} {
				sum += tr.Metrics[part].Value
			}
			if op := tr.Info["mean_op_us"].Value; math.Abs(sum-op) > 0.01*op {
				t.Errorf("layer shares sum to %.3f us, one-client mean op time is %.3f us", sum, op)
			}
			if tr.Metrics["bench.samples"].Value < 1 {
				t.Error("traced run recorded no client spans")
			}
			if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestScheduleSHA: the seed decides the operation stream and nothing
// else does.
func TestScheduleSHA(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		sha := func(seed uint64) string {
			in, err := w.inputs(w, seed, w.clients, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return in.sha
		}
		if a, b := sha(1996), sha(1996); a != b {
			t.Errorf("%s: seed 1996 gave schedules %s and %s", w.name, a, b)
		}
		if a, b := sha(1996), sha(2025); a == b {
			t.Errorf("%s: seeds 1996 and 2025 gave the same schedule %s", w.name, a)
		}
	}
}

// TestModelDevServiceTime: the realised service time is what shapes
// att_net and hot4k_tier, so it must be near the nominal one. A busy
// host stretches sleeps for a while; one calm batch in five is proof
// enough that the model itself is right.
func TestModelDevServiceTime(t *testing.T) {
	var got time.Duration
	for attempt := 0; attempt < 5; attempt++ {
		d := newModelDev(core.NewMemDevice(1<<20), modelService)
		d.on.Store(true)
		buf := make([]byte, 4096)
		for i := 0; i < 60; i++ {
			if _, err := d.WriteAt(buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		got = realisedP50([]*modelDev{d})
		if got >= modelService && float64(got) <= 1.2*float64(modelService) {
			return
		}
	}
	t.Errorf("realised p50 service time %v, want within 20%% above %v", got, modelService)
}

func TestShadowCatchesWrongBlocks(t *testing.T) {
	sh := newShadow(7, 1<<20, 64<<10, 4<<10)
	dev := core.NewMemDevice(2 << 20)
	if err := sh.prefill(dev, 16<<10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8<<10)
	off := int64(1<<20 + 8<<10)
	dev.ReadAt(buf, off)
	if !sh.check(buf, off) {
		t.Fatal("prefilled blocks do not verify")
	}
	dev.ReadAt(buf, off+4<<10) // right bytes, wrong place
	if sh.check(buf, off) {
		t.Error("misplaced blocks verified")
	}
	sh.fill(buf, off, 1)
	dev.WriteAt(buf, off)
	dev.ReadAt(buf, off)
	if sh.check(buf, off) {
		t.Error("an unacknowledged version verified")
	}
	sh.commit(len(buf), off)
	if !sh.check(buf, off) {
		t.Error("the acknowledged version does not verify")
	}
}

// TestAttribute: a request's time is split by the deepest open span,
// parallel children count once, and work on other stripes is
// background.
func TestAttribute(t *testing.T) {
	spans := []span{
		{kind: spClient, start: 0, end: 100, k0: 5, k1: 5},
		{kind: spStore, start: 10, end: 90, k0: 5, k1: 5},
		{kind: spDevice, start: 20, end: 50, k0: 5, k1: 5},
		{kind: spDevice, start: 30, end: 60, k0: 5, k1: 5}, // overlaps the first: 40 covered, not 60
		{kind: spNVRAM, start: 70, end: 80, k0: 0, k1: -1},
		{kind: spDevice, start: 40, end: 45, k0: 9, k1: 9}, // a scrub of another stripe
	}
	a := attribute(spans)
	want := [numKinds]int64{spClient: 20, spStore: 30, spDevice: 40, spNVRAM: 10}
	if a.selfNS != want {
		t.Errorf("self times %v, want %v", a.selfNS, want)
	}
	var sum int64
	for _, ns := range a.selfNS {
		sum += ns
	}
	if sum != a.rootNS || a.ops != 1 {
		t.Errorf("shares sum to %d over %d requests, want %d over 1", sum, a.ops, a.rootNS)
	}
	if a.bgNS[spDevice] != 5 || a.parent[5] != -1 {
		t.Errorf("background device time %d (parent %d), want 5 (-1)", a.bgNS[spDevice], a.parent[5])
	}
}

// TestQ1: the bounded I/O time counts every operation at the first
// quartile of its kind, so a slow tail of either kind does not move it
// and the mix of kinds does.
func TestQ1(t *testing.T) {
	q1 := func(d driven) (v float64) {
		endToEnd(&pass{d: d}, func(name string, x float64, _ int) {
			if name == "io_q1_us" {
				v = x
			}
		})
		return v
	}
	d := driven{window: time.Second}
	for i := 1; i <= 8; i++ { // reads of 1..8 us: first quartile 3 us
		d.samples = append(d.samples, sample{lat: time.Duration(i) * time.Microsecond, kind: opRead})
	}
	for i := 1; i <= 4; i++ { // writes of 10..40 us: first quartile 20 us
		d.samples = append(d.samples, sample{lat: time.Duration(10*i) * time.Microsecond, kind: opWrite})
	}
	want := (8*3.0 + 4*20.0) / 12
	if got := q1(d); math.Abs(got-want) > 1e-9 {
		t.Errorf("io_q1_us = %v, want %v", got, want)
	}
	d.samples[7].lat = time.Second // one read met a stolen processor
	if got := q1(d); math.Abs(got-want) > 1e-9 {
		t.Errorf("io_q1_us = %v with a slow tail, want %v still", got, want)
	}
}

// TestCompare: two sets of runs of the same code agree; a set that is
// worse by more than the bound does not.
func TestCompare(t *testing.T) {
	run := func(io float64) Report {
		return Report{Workload: "rw4k_net", Result: Result{Metrics: map[string]Value{
			"io_q1_us": {io, "us"}, "setup_s": {0.5, "s"}}}}
	}
	a := []Report{run(100), run(102), run(98)}
	var out bytes.Buffer
	if !Compare(&out, a, []Report{run(101), run(99), run(104)}) {
		t.Errorf("A/A comparison failed:\n%s", out.String())
	}
	out.Reset()
	if Compare(&out, a, []Report{run(130), run(131), run(129)}) {
		t.Errorf("a 30%% slowdown passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "WORSE") || !strings.Contains(out.String(), "of 100.00") {
		t.Errorf("comparison does not name the worse pair or its base:\n%s", out.String())
	}
}

// TestManifestMatchesRepo holds BENCHMARK.json to the tables in this
// package (regenerate it with: go run ./cmd/afraidbench -manifest).
func TestManifestMatchesRepo(t *testing.T) {
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this checkout:", err)
	}
	if !bytes.Equal(got, Manifest()) {
		t.Error("BENCHMARK.json differs from bench.Manifest()")
	}
}
