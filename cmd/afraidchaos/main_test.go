package main

import (
	"context"
	"strings"
	"testing"

	"afraid/internal/core"
	"afraid/internal/fault"
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
	{"cluster", "cluster.write.full_stripe",
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
		keys := append(append([]string{}, def.columns...), def.gate...)
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
		return c.vol.FailNode((c.victim + 1) % clusterNodes)
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

// The known hole, pinned so a weaker oracle cannot hide it: RAID 6,
// seed 2446 — a unit torn by a power cut is checksum-repaired through
// parity the same cut left inconsistent, on a healthy array. Expected
// until ROADMAP item 1 (write-intent marks for the synchronous modes)
// lands; then this test flips to asserting no violation.
func TestKnownWriteHoleSeed2446(t *testing.T) {
	rows, err := coreRows(options{modes: "raid6", checksums: true, flips: true})
	if err != nil {
		t.Fatal(err)
	}
	st, p := rows[0].schedule(2446)
	res, err := fault.Run(2446, st, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 || !strings.Contains(res.Violations[0], "byte 9216 (stripe 6) diverged") {
		t.Fatalf("violations = %v, want the known \"byte 9216 (stripe 6) diverged\"", res.Violations)
	}
}
