package cluster

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"afraid/internal/testutil"
)

// latNode wraps a Node with jittered per-op latency — the statistical
// stand-in for a loaded network path, where memNode's instant answers
// would degenerate every percentile to zero.
type latNode struct {
	Node
	mu   sync.Mutex
	rng  *rand.Rand
	base time.Duration
	jit  time.Duration
}

func newLatNode(inner Node, seed int64, base, jit time.Duration) *latNode {
	return &latNode{Node: inner, rng: rand.New(rand.NewSource(seed)), base: base, jit: jit}
}

func (n *latNode) SetLatency(base, jit time.Duration) {
	n.mu.Lock()
	n.base, n.jit = base, jit
	n.mu.Unlock()
}

func (n *latNode) delay(ctx context.Context) error {
	n.mu.Lock()
	d := n.base
	if n.jit > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.jit)))
	}
	n.mu.Unlock()
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (n *latNode) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	if err := n.delay(ctx); err != nil {
		return 0, err
	}
	return n.Node.ReadAtContext(ctx, p, off)
}

func (n *latNode) WriteAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	if err := n.delay(ctx); err != nil {
		return 0, err
	}
	return n.Node.WriteAtContext(ctx, p, off)
}

// p99 returns the 99th percentile of the samples.
func p99(samples []time.Duration) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := len(s) * 99 / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// TestHedgedReadBoundsBrownoutTail is the ISSUE 10 latency acceptance:
// with one node browned out at 10x the healthy latency, hedged reads
// must keep the volume's read p99 within 2x the healthy-cluster p99 —
// and far below the brownout itself — without the node being demoted.
func TestHedgedReadBoundsBrownoutTail(t *testing.T) {
	const (
		unit        = 4096
		healthyBase = 5 * time.Millisecond
		healthyJit  = 5 * time.Millisecond // healthy node read: 5–10 ms
		brownout    = 100 * time.Millisecond
		hedgeDelay  = 6 * time.Millisecond
		reads       = 120
	)
	nNodes := 4
	lats := make([]*latNode, nNodes)
	members := make([]Member, nNodes)
	for i := range members {
		lats[i] = newLatNode(newMemNode(16*unit), int64(7000+i), healthyBase, healthyJit)
		n := lats[i]
		members[i] = Member{Addr: "lat", Node: n, Dial: func() (Node, error) { return n, nil }}
	}
	opts := quietOpts()
	opts.HedgeDelay = hedgeDelay
	v, err := Open(members, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	fillVolume(t, v, 99)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4242))
	measure := func() []time.Duration {
		buf := make([]byte, unit)
		samples := make([]time.Duration, 0, reads)
		for i := 0; i < reads; i++ {
			off := rng.Int63n(v.Capacity()/unit) * unit
			t0 := time.Now()
			if _, err := v.ReadAt(buf, off); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			samples = append(samples, time.Since(t0))
		}
		return samples
	}

	healthyP99 := p99(measure())
	lats[2].SetLatency(brownout, 0) // 10x the healthy ceiling
	hedgedP99 := p99(measure())

	t.Logf("healthy p99 = %v, browned-out p99 with hedging = %v", healthyP99, hedgedP99)
	// The race detector slows the reconstruction path (parallel reads +
	// XOR) far more than a plain node read; widen the ratio there. The
	// absolute bound below holds either way.
	ratio := time.Duration(2)
	if testutil.RaceEnabled {
		ratio = 5
	}
	if hedgedP99 > ratio*healthyP99 {
		t.Errorf("hedged p99 %v exceeds %dx healthy p99 %v", hedgedP99, ratio, healthyP99)
	}
	if hedgedP99 > brownout/2 {
		t.Errorf("hedged p99 %v not well below the %v brownout", hedgedP99, brownout)
	}
	st := v.Stats()
	if st.HedgedReads == 0 || st.HedgeWins == 0 {
		t.Errorf("no hedge activity recorded: hedged=%d wins=%d", st.HedgedReads, st.HedgeWins)
	}
	// The browned-out node answered (slowly) every time: hedging hid the
	// latency without spending a demotion on a live node.
	if s := v.NodeStates(); s[2].State != StateUp {
		t.Errorf("browned-out node state = %v, want up", s[2].State)
	}
}

// TestHedgeDisabled pins the opt-out: HedgeDelay < 0 must never hedge.
func TestHedgeDisabled(t *testing.T) {
	opts := quietOpts()
	opts.HedgeDelay = -1
	v, _ := testVolume(t, 4, 16*4096, opts)
	fillVolume(t, v, 3)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := 0; i < 32; i++ {
		if _, err := v.ReadAt(buf, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if st := v.Stats(); st.HedgedReads != 0 {
		t.Fatalf("hedges fired with hedging disabled: %d", st.HedgedReads)
	}
}

// TestHedgeAutoDelayDerivesFromP99 pins auto mode: with enough samples
// the delay tracks the merged node-read p99 (clamped), not the default.
func TestHedgeAutoDelayDerivesFromP99(t *testing.T) {
	opts := quietOpts()
	v, _ := testVolume(t, 4, 16*4096, opts)
	fillVolume(t, v, 5)
	// Seed the node-read histograms with a known distribution.
	for i := 0; i < 200; i++ {
		v.ob.nodeRead[i%4].Observe(10 * time.Millisecond)
	}
	v.hedgeEval.Store(0) // invalidate the cache
	if d := v.hedgeDelay(); d < 5*time.Millisecond || d > 20*time.Millisecond {
		t.Fatalf("auto hedge delay = %v, want ~10ms from the seeded p99", d)
	}
}
