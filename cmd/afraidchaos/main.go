// Command afraidchaos runs seeded chaos episodes against one of the
// repo's stacks and audits each against the one byte oracle in
// internal/fault (fault.Run): a successful read returns the last
// acknowledged value of every determinate byte, and reported loss is
// legal only on a stripe that was unredundant at a failure point, lay
// under an unacknowledged write, or was already reported. An episode
// *survives* when nothing was lost, is *lost* when data was lost but the
// loss was legal and reported (the paper's exposure window), and is
// *violated* when the stack broke its contract — silent divergence,
// unreported loss, or loss outside the unredundant set.
//
// -stack picks what the episodes run against; a stack is an adapter
// (fault.Stack) plus a schedule derived from the episode's seed, so a
// violation is reproducible from the printed repro line alone:
//
//	core     a core.Store on fault-wrapped disks, round-robin over -modes:
//	         power cuts, marking-memory loss, transient member faults,
//	         disk failures and repairs, power cuts inside a repair, and —
//	         with -checksums and -flips (the defaults) — silent bit flips
//	         on both I/O paths
//	tier     the hybrid (internal/tier): a mirrored write-back front over
//	         an AFRAID back end, with power cuts torn mid-promote and
//	         mid-demote, extent-map loss, and front-copy fail-stops
//	cluster  a cluster.Volume over four servers on TCP, each behind a
//	         fault.Proxy, round-robin over the network fault classes (or
//	         -class): black-hole and refused partitions, brownouts
//	         absorbed by hedged reads, mid-frame resets, frame
//	         truncations, and flap storms that must end in quarantine
//	stacked  the cluster volume again, each node now a tier over a
//	         checksummed AFRAID store on fault-wrapped disks: one episode
//	         composes a bit flip inside one node's back store with a
//	         network fault class on, and a power cut and recovery of,
//	         another
//
// A share of every workload's ops covers whole stripes (and extents),
// aligned, so full-stripe writes and in-place degraded reads run under
// the same faults. Coverage gates are stat keys, each set on the rows
// whose episodes reliably move it: a run in which a row's gate key stayed
// zero — a parity-keeping policy that wrote no full stripe, a fault class
// that never hit its mechanism — fails as a coverage gap, violations or
// not. A run pinned to one class (-class) is held to that row's keys
// alone.
//
// Usage:
//
//	afraidchaos                              # 200 core episodes, seed 1
//	afraidchaos -episodes 500 -seed 7 -v
//	afraidchaos -modes afraid,raid6 -ops 300
//	afraidchaos -stack tier -episodes 200
//	afraidchaos -stack cluster -class flap -v
//	afraidchaos -stack stacked -episodes 200
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"afraid/internal/core"
	"afraid/internal/fault"
	"afraid/internal/tier"
)

// options are the flags a stack's rows are built from.
type options struct {
	modes            string
	ops, disks       int
	stripes          int64
	checksums, flips bool
	class            string
}

// row is one line of the audit table. Episodes go round-robin over a
// stack's rows; each derives its whole schedule from the episode's seed.
type row struct {
	name     string
	schedule func(seed int64) (fault.Stack, fault.Plan)
	gate     []string // stat keys, each of which some episode of the row must move
	repro    string   // the flags that replay one seed of this row
}

// stacks is the -stack table: how each stack's rows are built, and the
// stat keys its table prints.
var stacks = map[string]struct {
	rows    func(o options) ([]row, error)
	columns []string
}{
	"core": {coreRows, []string{"fault.power_cycles", "fault.repair_cuts", "core.recovered_stripes", "fault.flip_bits",
		"core.checksum_repaired", "core.checksum_lost", "core.full_stripe_writes"}},
	"tier": {tierRows, []string{"fault.power_cycles", "tier.map_recovered", "fault.failed_members", "tier.promotes",
		"tier.demotes", "tier.front_read_hits", "tier.front_write_hits", "tier.mirror_failovers", "core.full_stripe_writes"}},
	"cluster": {clusterRows, clusterColumns},
	"stacked": {stackedRows, append([]string{"fault.power_cycles", "fault.flip_bits", "core.checksum_repaired",
		"tier.promotes"}, clusterColumns...)},
}

func main() {
	var o options
	seed := flag.Int64("seed", 1, "base seed; episode i uses seed+i")
	episodes := flag.Int("episodes", 200, "episodes to run, round-robin over the stack's rows")
	stackFlag := flag.String("stack", "core", "what the episodes run against: core, tier, cluster or stacked")
	flag.StringVar(&o.modes, "modes", "afraid,raid5,raid6,afraid6", "core: comma-separated policies")
	flag.IntVar(&o.ops, "ops", 0, "workload operations per episode (0 = the stack's default)")
	flag.IntVar(&o.disks, "disks", 0, "core: member disks (0 = default)")
	flag.Int64Var(&o.stripes, "stripes", 0, "core: stripes per disk (0 = default)")
	flag.BoolVar(&o.checksums, "checksums", true, "core: open stores with block checksums")
	flag.BoolVar(&o.flips, "flips", true, "core: arm silent bit-flip faults (with -checksums=false they go undetected)")
	flag.StringVar(&o.class, "class", "", "cluster, stacked: pin every episode to one fault class ("+classList+")")
	verbose := flag.Bool("v", false, "print every episode")
	failFast := flag.Bool("fail-fast", false, "stop at the first violation")
	flag.Parse()

	def, ok := stacks[*stackFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "afraidchaos: unknown stack %q (want core, tier, cluster or stacked)\n", *stackFlag)
		os.Exit(2)
	}
	rows, err := def.rows(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afraidchaos:", err)
		os.Exit(2)
	}

	type tally struct {
		episodes, survived, lost, violated int
		lostBytes                          int64
		stats                              map[string]int64
	}
	tallies := make([]tally, len(rows))
	total := map[string]int64{}
	var violations []string

	for i := 0; i < *episodes; i++ {
		r, t := rows[i%len(rows)], &tallies[i%len(rows)]
		epSeed := *seed + int64(i)
		st, plan := r.schedule(epSeed)
		res, err := fault.Run(epSeed, st, plan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "afraidchaos: %s episode seed=%d %s: %v\n", *stackFlag, epSeed, r.name, err)
			os.Exit(2)
		}
		t.episodes++
		switch {
		case len(res.Violations) > 0:
			t.violated++
		case res.LostBytes > 0 || res.LossEvents > 0:
			t.lost++
		default:
			t.survived++
		}
		t.lostBytes += res.LostBytes
		if t.stats == nil {
			t.stats = map[string]int64{}
		}
		for k, v := range res.Stats {
			t.stats[k] += v
			total[k] += v
		}
		if *verbose || len(res.Violations) > 0 {
			fmt.Printf("seed=%-6d %-9s %s\n", epSeed, r.name, describe(res, def.columns))
		}
		for _, v := range res.Violations {
			violations = append(violations, fmt.Sprintf("seed=%d %s: %s\n  repro: afraidchaos -stack %s -seed %d -episodes 1 %s",
				epSeed, r.name, v, *stackFlag, epSeed, r.repro))
		}
		if *failFast && len(violations) > 0 {
			break
		}
	}

	fmt.Printf("\n%-9s %8s %8s %5s %8s %10s", "row", "episodes", "survived", "lost", "violated", "lost-bytes")
	for _, k := range def.columns {
		fmt.Printf(" %s", label(k))
	}
	fmt.Println()
	for i, r := range rows {
		t := tallies[i]
		fmt.Printf("%-9s %8d %8d %5d %8d %10d", r.name, t.episodes, t.survived, t.lost, t.violated, t.lostBytes)
		for _, k := range def.columns {
			fmt.Printf(" %*d", len(label(k)), t.stats[k])
		}
		fmt.Println()
	}

	if len(violations) > 0 {
		fmt.Printf("\n%d VIOLATION(S):\n", len(violations))
		for _, v := range violations {
			fmt.Println(" ", v)
		}
	}
	// Coverage gates: a run that never moved a gate key left what the key
	// counts untested; fail loudly rather than report a vacuous pass. A
	// run with violations names its gaps too.
	gaps := 0
	for i, r := range rows {
		for _, k := range r.gate {
			if tallies[i].episodes > 0 && tallies[i].stats[k] == 0 {
				fmt.Printf("coverage gap: %d %s episodes, %s stayed 0\n", tallies[i].episodes, r.name, k)
				gaps++
			}
		}
	}
	if len(violations) > 0 || gaps > 0 {
		os.Exit(1)
	}
	fmt.Println("\nno invariant violations")
}

// label is a stat key without its layer prefix, as a column head.
func label(key string) string { return key[strings.IndexByte(key, '.')+1:] }

func describe(r *fault.Result, columns []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "acked=%d failed=%d", r.AckedWrites, r.FailedWrites)
	fmt.Fprintf(&b, " exposed=%d holes=%d loss-events=%d lost=%dB", r.Exposed, r.Holes, r.LossEvents, r.LostBytes)
	for _, k := range columns {
		if v := r.Stats[k]; v != 0 {
			fmt.Fprintf(&b, " %s=%d", label(k), v)
		}
	}
	if len(r.Violations) > 0 {
		fmt.Fprintf(&b, " VIOLATIONS=%d", len(r.Violations))
	}
	return b.String()
}

// coreRows is one row per policy in -modes.
func coreRows(o options) ([]row, error) {
	var rows []row
	for _, name := range strings.Split(o.modes, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		mode, err := core.ParseMode(name)
		if err != nil {
			return nil, err
		}
		r := row{
			name: name,
			schedule: func(seed int64) (fault.Stack, fault.Plan) {
				cfg := coreSchedule(seed, mode, o.checksums, o.flips)
				cfg.Ops, cfg.Disks, cfg.StripesPerDisk = o.ops, o.disks, o.stripes
				st := fault.NewCore(cfg)
				return st, st.Plan()
			},
			repro: fmt.Sprintf("-modes %s -checksums=%v -flips=%v", name, o.checksums, o.flips),
		}
		if mode != core.Raid0 {
			r.gate = []string{"core.full_stripe_writes", "fault.repair_cuts"}
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no modes in %q", o.modes)
	}
	return rows, nil
}

// coreSchedule derives a core episode's fault plan from its seed,
// independently of the workload stream (which fault.Run seeds itself).
func coreSchedule(epSeed int64, mode core.Mode, checksums, flips bool) fault.Config {
	rng := rand.New(rand.NewSource(epSeed ^ 0x5eed))
	cfg := fault.Config{Mode: mode, Checksums: checksums}
	if flips {
		cfg.FlipBits = rng.Intn(3)
		cfg.ReadRot = rng.Intn(2)
	}
	cfg.PowerCut = rng.Float64() < 0.5
	deferredMode := mode == core.Afraid || mode == core.Afraid6
	if cfg.PowerCut && deferredMode {
		cfg.DropNVRAM = rng.Float64() < 0.25
	}
	// The core stack caps failures at the mode's redundancy (0 for raid0).
	cfg.DiskFails = rng.Intn(3)
	cfg.Transients = rng.Intn(2)
	if cfg.DiskFails > 0 || cfg.Transients > 0 {
		cfg.Repair = rng.Float64() < 0.9
	}
	if mode != core.Raid0 {
		cfg.MixedSync = rng.Float64() < 0.5
	}
	// The last draw, so that adding it moved no episode's earlier ones.
	if cfg.Repair {
		cfg.RepairCut = rng.Float64() < 0.6
	}
	return cfg
}

// tierRows is the one tier row: every fourth episode or so is
// fault-free, and the rest mix power cuts (torn mid-promote, mid-demote
// or mid-mirror-write depending on the seed), extent-map loss,
// front-copy fail-stops and a front copy's reported loss.
func tierRows(o options) ([]row, error) {
	return []row{{
		name: "tier",
		schedule: func(seed int64) (fault.Stack, fault.Plan) {
			rng := rand.New(rand.NewSource(seed ^ 0x7ae5))
			cfg := tier.ChaosConfig{Ops: o.ops}
			cfg.PowerCut = rng.Float64() < 0.6
			if cfg.PowerCut {
				cfg.DropTierMap = rng.Float64() < 0.25
			}
			if !cfg.DropTierMap {
				// Map loss plus a dead mirror copy is a double failure
				// outside the contract; the stack would clamp it anyway.
				cfg.FrontCopyFail = rng.Float64() < 0.3
			}
			if rng.Float64() < 0.3 {
				cfg.FrontPairs = 2
			}
			// The last draw, so that adding it moved no episode's earlier
			// ones. A reported loss on a copy beside a dead one is two
			// faults on one pair, outside the contract.
			if !cfg.FrontCopyFail {
				cfg.FrontCopyLoss = rng.Float64() < 0.3
			}
			st := tier.NewChaosStack(cfg)
			return st, st.Plan()
		},
		gate: []string{"core.full_stripe_writes", "tier.mirror_failovers"},
	}}, nil
}
