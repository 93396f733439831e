package main

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"afraid/internal/cluster"
	"afraid/internal/core"
	"afraid/internal/fault"
	"afraid/internal/layout"
	"afraid/internal/tier"
)

// flip inverts one byte of a medium behind whatever is assembled on it.
func flip(t *testing.T, dev core.BlockDevice, off int64) {
	t.Helper()
	var one [1]byte
	if _, err := dev.ReadAt(one[:], off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := dev.WriteAt(one[:], off); err != nil {
		t.Fatal(err)
	}
}

// cleanStacks builds each stack with no fault in its schedule: a plain
// workload of ops operations, then whatever extra steps the test adds.
var cleanStacks = []struct {
	name       string
	fullStripe string // the key the aligned op class must move
	build      func(ops int, extra ...fault.Step) (fault.Stack, fault.Plan)
	tamper     func(t *testing.T, s fault.Stack)
}{
	{"core", "core.full_stripe_writes",
		func(ops int, extra ...fault.Step) (fault.Stack, fault.Plan) {
			st := fault.NewCore(fault.Config{Mode: core.Afraid, Ops: ops})
			p := st.Plan()
			p.Steps = append([]fault.Step{fault.Workload(ops)}, extra...)
			return st, p
		},
		func(t *testing.T, s fault.Stack) { flip(t, s.(*fault.Core).Backings[0], 0) }},
	{"tier", "core.full_stripe_writes",
		func(ops int, extra ...fault.Step) (fault.Stack, fault.Plan) {
			st := tier.NewChaosStack(tier.ChaosConfig{Ops: ops})
			p := st.Plan()
			p.Steps = append([]fault.Step{fault.Workload(ops)}, extra...)
			return st, p
		},
		func(t *testing.T, s fault.Stack) {
			// Whichever tier holds the first extent, and whichever mirror
			// copy serves it.
			st := s.(*tier.ChaosStack)
			for _, dev := range append(st.FrontBackings, st.Back.Backings[0]) {
				flip(t, dev, 0)
			}
		}},
	{"cluster", "cluster.full_stripe_writes",
		func(ops int, extra ...fault.Step) (fault.Stack, fault.Plan) {
			c := newClusterStack("", ops)
			return c, c.plan(append([]fault.Step{fault.Workload(ops)}, extra...)...)
		},
		func(t *testing.T, s fault.Stack) {
			// Through node 0's own store, behind the volume: the first byte
			// of the volume, with no parity update.
			b, ctx, one := s.(*clusterStack).served[0], context.Background(), make([]byte, 1)
			if _, err := b.ReadContext(ctx, one, 0); err != nil {
				t.Fatal(err)
			}
			one[0] ^= 0xFF
			if _, err := b.WriteContext(ctx, one, 0); err != nil {
				t.Fatal(err)
			}
		}},
}

// TestHarnessDetectsCorruption proves the one oracle is not vacuous on
// any stack: after a clean workload (which must pass), one byte flipped
// behind the stack must surface as a "diverged" violation.
func TestHarnessDetectsCorruption(t *testing.T) {
	for _, tc := range cleanStacks {
		t.Run(tc.name, func(t *testing.T) {
			for _, tampered := range []bool{false, true} {
				var st fault.Stack
				var p fault.Plan
				st, p = tc.build(60, func(*fault.Episode) error {
					if tampered {
						tc.tamper(t, st)
					}
					return nil
				}, fault.Sweep("tamper"))
				res, err := fault.Run(10, st, p)
				if err != nil {
					t.Fatal(err)
				}
				if !tampered {
					if len(res.Violations) != 0 {
						t.Fatalf("clean workload produced violations: %v", res.Violations)
					}
					continue
				}
				if len(res.Violations) == 0 {
					t.Fatal("harness failed to detect out-of-band corruption")
				}
				if v := res.Violations[0]; !strings.Contains(v, "tamper") || !strings.Contains(v, "diverged") {
					t.Fatalf("unexpected first violation: %v", res.Violations)
				}
			}
		})
	}
}

// The aligned op class is declared once, in fault.Run's generator, over
// the grains each stack declares; it must reach the full-stripe write of
// every stack — the counter afraidchaos gates a whole run on.
func TestAlignedOpsReachFullStripeOnEveryStack(t *testing.T) {
	for _, tc := range cleanStacks {
		st, p := tc.build(120)
		res, err := fault.Run(11, st, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, v := range res.Violations {
			t.Errorf("%s: %s", tc.name, v)
		}
		if res.Stats[tc.fullStripe] == 0 {
			t.Errorf("%s: no aligned op moved %s", tc.name, tc.fullStripe)
		}
	}
}

// Every key a stack's table prints or gates on must be one its episodes
// actually report, or a renamed counter turns a gate into a false gap
// (or a column into zeros) without anyone noticing.
func TestTableKeysAreReported(t *testing.T) {
	for name, def := range stacks {
		if testing.Short() && name == "stacked" {
			continue
		}
		rows, err := def.rows(options{modes: "afraid,raid5,raid6,afraid6", checksums: true, flips: true})
		if err != nil {
			t.Fatal(err)
		}
		st, p := rows[len(rows)-1].schedule(1)
		res, err := fault.Run(1, st, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keys := append([]string{}, def.columns...)
		for _, r := range rows {
			keys = append(keys, r.gate...)
		}
		for _, k := range keys {
			if _, ok := res.Stats[k]; !ok {
				t.Errorf("%s: no episode reports %q", name, k)
			}
		}
	}
}

// Recovery waits on the whole volume, not the intended victim: a
// bystander demoted after the heal (one late answer under NodeTimeout is
// enough in a real run) is auto-healing when the close begins, and the
// flush and the parity audit must wait for it or find its stripes
// unverifiable.
func TestCloseWaitsForBystanders(t *testing.T) {
	c := newClusterStack("", 30)
	res, err := fault.Run(3, c, c.plan(fault.Workload(30), c.Heal, func(*fault.Episode) error {
		bystander := (c.victim + 1) % clusterNodes
		c.links[bystander].Partition()
		demoted := waitCond(5*time.Second, func() bool { return c.state(bystander) == cluster.StateDown })
		if err := c.links[bystander].Restore(); err != nil { // the prober redials it and auto-heals
			return err
		}
		if !demoted {
			return errors.New("the prober never demoted the partitioned bystander")
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if res.Stats["cluster.node_failovers"] == 0 {
		t.Error("the bystander was never demoted")
	}
}

// Each row is an episode the oracle used to excuse, and that violated the
// contract once the excusal was lifted: the write hole, seen from every
// side the core adapter hid it behind. A synchronous write now marks its
// stripe while it is in flight and a mark found after a crash vouches for
// no parity, so each must run clean with no excusal left.
func TestFormerlyExcusedSeeds(t *testing.T) {
	for _, row := range []struct {
		mode             string
		seed             int64
		checksums, flips bool
		excusal          string
	}{
		{"raid6", 2446, true, true, "none: pinned as the known write hole (a torn unit checksum-repaired through parity the cut left inconsistent)"},
		{"raid5", 1, false, false, "the hole-bytes excusal: a hole stripe's bytes read degraded were not compared"},
		{"raid6", 8, false, false, "the repair distrust: a unit repair rebuilt inside a hole stripe was indeterminate"},
		{"raid6", 9, true, true, "the torn-unit distrust: a cut write on a degraded store was indeterminate to its unit boundaries"},
		{"raid5", 2, true, true, "the any-loss excusal: with flips armed, any reported loss was legal (here a dead member plus a flip)"},
	} {
		rows, err := coreRows(options{modes: row.mode, checksums: row.checksums, flips: row.flips})
		if err != nil {
			t.Fatal(err)
		}
		st, p := rows[0].schedule(row.seed)
		res, err := fault.Run(row.seed, st, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("%s seed %d (was excused by %s): %s", row.mode, row.seed, row.excusal, v)
		}
	}
}

// A unit a node's own array cannot vouch for is a failed unit of the
// volume's stripe: beside a node that is down, or under the stripe's mark,
// it is beyond single parity, and alone on a clean stripe it is not. One
// node's unit counts once however many of its ranges it overlaps.
func TestStackedExposureCountsNodeHeldUnits(t *testing.T) {
	geo := layout.Geometry{Disks: 4, StripeUnit: 4096, DiskSize: 8 * 4096, Level: layout.RAID5}
	// The node's back stripes 2 and 3 (1536 bytes each) both lie in the
	// node's unit of volume stripe 1; stripe 2 reaches back into stripe 0's.
	held := [][][2]int64{{{3072, 4608}, {4608, 6144}}}
	for _, tc := range []struct {
		name  string
		dirty []int64
		wide  bool
		down  int
		held  [][][2]int64
		want  []int64
	}{
		{"clean, every node up", nil, false, 0, held, nil},
		{"clean, beside a node down", nil, true, 1, held, []int64{0, 1}},
		{"dirty, every node up", []int64{1, 5}, false, 0, held, []int64{1}},
		{"dirty, at a failover", []int64{1, 5}, true, 0, nil, []int64{1, 5}},
		{"two nodes hold the unit", nil, false, 0, [][][2]int64{held[0], {{4096, 5632}}}, []int64{1}},
	} {
		if got := exposedStripes(geo, tc.dirty, tc.wide, tc.down, tc.held); !slices.Equal(got, tc.want) {
			t.Errorf("%s: exposed %v, want %v", tc.name, got, tc.want)
		}
	}
}
