package cluster

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/testutil"
)

// heldVolume is a four-node testVolume on a clock the test holds. Its
// prober's ticker never fires within a test (an hour), so only the test's
// probe steps run the prober.
func heldVolume(t *testing.T, nodeTimeout time.Duration) (*Volume, *testutil.Clock) {
	t.Helper()
	clock := &testutil.Clock{}
	opts := quietOpts()
	opts.NodeTimeout = nodeTimeout
	opts.ProbeInterval = time.Hour
	opts.now = clock.Now
	v, _ := testVolume(t, 4, 16*4096, opts)
	return v, clock
}

// probeStep runs one prober tick and waits for the probes and heals it
// started.
func probeStep(t *testing.T, v *Volume) {
	t.Helper()
	v.probe()
	testutil.Eventually(t, "the tick's probes and heals to finish", func() bool {
		v.meta.Lock()
		defer v.meta.Unlock()
		for _, m := range v.nodes {
			if m.probing || m.healing {
				return false
			}
		}
		return true
	})
}

// flapOnce demotes node i and redials it, as one flap of a node that
// comes back by itself.
func flapOnce(t *testing.T, v *Volume, i int) {
	t.Helper()
	failNode(v, i)
	if err := v.redialNode(i); err != nil {
		t.Fatal(err)
	}
}

// TestFlapWindow: FlapThreshold demotions quarantine a node only inside
// flapWindow on the volume's clock. One exactly flapWindow old has left it.
func TestFlapWindow(t *testing.T) {
	v, clock := heldVolume(t, 5*time.Second)
	flapOnce(t, v, 2)
	clock.Advance(flapWindow / 2)
	flapOnce(t, v, 2)
	clock.Advance(flapWindow / 2)
	flapOnce(t, v, 2) // the first demotion is now flapWindow old
	if q := v.Stats().Quarantines; q != 0 {
		t.Fatalf("three demotions spread over flapWindow: %d quarantines, want 0", q)
	}
	clock.Advance(flapWindow/2 - 1)
	failNode(v, 2) // three inside one flapWindow
	if q := v.Stats().Quarantines; q != 1 {
		t.Fatalf("three demotions inside flapWindow: %d quarantines, want 1", q)
	}
	if s := v.NodeStates()[2].State; s != StateQuarantined {
		t.Fatalf("node 2 is %v, want quarantined", s)
	}
}

// TestQuarantineDecayDefault: at its 5-minute default, QuarantineDecay
// readmits a quarantined node on the prober's first tick once it has
// passed, and not 1 ns before.
func TestQuarantineDecayDefault(t *testing.T) {
	v, clock := heldVolume(t, 5*time.Second)
	if d := v.opts.QuarantineDecay; d != 5*time.Minute {
		t.Fatalf("default QuarantineDecay = %v, want 5m", d)
	}
	flapOnce(t, v, 2)
	flapOnce(t, v, 2)
	failNode(v, 2)
	if s := v.NodeStates()[2].State; s != StateQuarantined {
		t.Fatalf("node 2 is %v, want quarantined", s)
	}
	clock.Advance(5*time.Minute - 1)
	probeStep(t, v)
	if s := v.NodeStates()[2].State; s != StateQuarantined {
		t.Fatalf("1 ns before the decay node 2 is %v, want still quarantined", s)
	}
	clock.Advance(1)
	probeStep(t, v)
	if s := v.NodeStates()[2].State; s == StateQuarantined {
		t.Fatal("node 2 still quarantined after the decay")
	}
	if _, _, up := v.nodes[2].conn(); !up {
		t.Fatal("the decayed node was not redialed")
	}
}

// TestQuarantineDecayLogsUnlocked: the prober logs a quarantine's decay
// after unlocking the volume, so a Logf that reads the volume (here
// NodeStates) returns and the probe step with it.
func TestQuarantineDecayLogsUnlocked(t *testing.T) {
	clock := &testutil.Clock{}
	var vol atomic.Pointer[Volume]
	logged := make(chan []NodeInfo, 1)
	opts := quietOpts()
	opts.ProbeInterval = time.Hour
	opts.now = clock.Now
	opts.Logf = func(format string, _ ...any) {
		if v := vol.Load(); v != nil && strings.Contains(format, "decayed") {
			logged <- v.NodeStates()
		}
	}
	v, _ := testVolume(t, 4, 16*4096, opts)
	vol.Store(v)
	flapOnce(t, v, 2)
	flapOnce(t, v, 2)
	failNode(v, 2)
	if s := v.NodeStates()[2].State; s != StateQuarantined {
		t.Fatalf("node 2 is %v, want quarantined", s)
	}
	clock.Advance(v.opts.QuarantineDecay)
	probed := make(chan struct{})
	go func() { v.probe(); close(probed) }()
	select {
	case states := <-logged:
		if len(states) != 4 {
			t.Fatalf("NodeStates from Logf: %d nodes, want 4", len(states))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a Logf reading the volume during a quarantine decay never returned")
	}
	<-probed
	probeStep(t, v)
}

// TestRedialBackoffDoubles: a down node that will not answer is redialed
// at ProbeInterval, then at twice the last wait, up to 8 ProbeIntervals,
// each measured on the volume's clock.
func TestRedialBackoffDoubles(t *testing.T) {
	v, clock := heldVolume(t, 5*time.Second)
	failNode(v, 2)
	var dials atomic.Int64
	v.meta.Lock()
	v.nodes[2].dial = func() (Node, error) {
		dials.Add(1)
		return nil, errors.New("connection refused")
	}
	v.meta.Unlock()
	for k, want := range []time.Duration{time.Hour, 2 * time.Hour, 4 * time.Hour, 8 * time.Hour, 8 * time.Hour} {
		probeStep(t, v)
		if n := dials.Load(); n != int64(k+1) {
			t.Fatalf("redial %d: %d dials, want %d", k+1, n, k+1)
		}
		v.meta.Lock()
		got := v.nodes[2].probeBackoff
		v.meta.Unlock()
		if got != want {
			t.Fatalf("after failed redial %d the backoff is %v, want %v", k+1, got, want)
		}
		clock.Advance(want - 1)
		probeStep(t, v)
		if n := dials.Load(); n != int64(k+1) {
			t.Fatalf("redialed 1 ns before the %v backoff ran out", want)
		}
		clock.Advance(1)
	}
}

// TestAutoHealWaitsForSettle: a redialed node's auto-heal starts on the
// prober's first tick at least min(NodeTimeout, 500 ms) after the redial
// on the volume's clock, and not 1 ns before.
func TestAutoHealWaitsForSettle(t *testing.T) {
	for _, tc := range []struct{ nodeTimeout, settle time.Duration }{
		{5 * time.Second, 500 * time.Millisecond},
		{200 * time.Millisecond, 200 * time.Millisecond},
	} {
		v, clock := heldVolume(t, tc.nodeTimeout)
		failNode(v, 2)
		probeStep(t, v) // the redial
		if _, _, up := v.nodes[2].conn(); !up {
			t.Fatal("the prober did not redial node 2")
		}
		clock.Advance(tc.settle - 1)
		probeStep(t, v)
		if n := v.Stats().AutoHeals; n != 0 {
			t.Fatalf("NodeTimeout %v: %d auto-heals 1 ns before the %v settle, want 0", tc.nodeTimeout, n, tc.settle)
		}
		if s := v.NodeStates()[2].State; s != StateDown {
			t.Fatalf("NodeTimeout %v: before its heal node 2 is %v, want down", tc.nodeTimeout, s)
		}
		clock.Advance(1)
		probeStep(t, v)
		if n := v.Stats().AutoHeals; n != 1 {
			t.Fatalf("NodeTimeout %v: %d auto-heals at the settle, want 1", tc.nodeTimeout, n)
		}
		if s := v.NodeStates()[2].State; s != StateUp {
			t.Fatalf("NodeTimeout %v: after its heal node 2 is %v, want up", tc.nodeTimeout, s)
		}
	}
}
