// Command afraidchaos runs seeded chaos schedules against the
// functional store: randomized workloads interrupted by power cuts,
// marking-memory loss, transient member faults, disk failures, and
// repairs — plus, with -checksums (the default), silent bit flips on
// both I/O paths that the store's block checksums must catch — with
// every episode checked against the shadow model in internal/fault. An episode *survives* when nothing was lost, is
// *lost* when data was lost but the loss was legal and reported (the
// paper's exposure window), and is *violated* when the store broke its
// contract — silent divergence, unreported loss, or loss outside the
// unredundant set.
//
// Every schedule is derived from the episode's seed, so a violation is
// reproducible from the printed repro line alone.
//
// A share of every workload's ops covers whole stripes, stripe-aligned,
// so the store's full-stripe write and in-place degraded read run under
// the same faults; a run in which a parity-keeping policy (or the tier's
// back store, or the cluster volume) wrote no full stripe fails as a
// coverage gap, violations or not.
//
// With -tier the schedules instead target the hybrid tier
// (internal/tier): a mirrored write-back front over an AFRAID back
// end, with power cuts torn mid-promote and mid-demote, extent-map
// loss, and front-copy fail-stops, all checked against a byte-level
// shadow.
//
// With -cluster the schedules target a real multi-node volume: four
// afraidd servers over TCP, each behind a fault.Proxy, with seeded
// network faults — black-hole and refused partitions, brownouts
// absorbed by hedged reads, mid-frame resets, frame truncations, and
// flap storms that must end in quarantine — every episode recovered
// and audited byte-for-byte against the loss contract.
//
// Usage:
//
//	afraidchaos                              # 200 episodes, seed 1
//	afraidchaos -episodes 500 -seed 7 -v
//	afraidchaos -modes afraid,raid6 -ops 300
//	afraidchaos -tier -episodes 200          # hybrid-tier schedules
//	afraidchaos -cluster -episodes 200       # network-chaos schedules
//	afraidchaos -cluster -class flap -v      # one fault class only
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

func main() {
	seed := flag.Int64("seed", 1, "base seed; episode i uses seed+i")
	episodes := flag.Int("episodes", 200, "episodes to run, round-robin over -modes")
	modesFlag := flag.String("modes", "afraid,raid5,raid6,afraid6", "comma-separated policies")
	ops := flag.Int("ops", 0, "workload operations per episode (0 = harness default)")
	disks := flag.Int("disks", 0, "member disks (0 = harness default)")
	stripes := flag.Int64("stripes", 0, "stripes per disk (0 = harness default)")
	checksums := flag.Bool("checksums", true, "open stores with block checksums and arm silent bit flips")
	flips := flag.Bool("flips", true, "arm silent bit-flip faults (with -checksums=false they go undetected)")
	tierRun := flag.Bool("tier", false, "run hybrid-tier schedules (internal/tier) instead of bare-store ones")
	clusterRun := flag.Bool("cluster", false, "run network-chaos schedules against a proxied multi-node TCP volume")
	classFlag := flag.String("class", "", "with -cluster: pin every episode to one fault class (partition, refuse, slow, reset, truncate, flap)")
	verbose := flag.Bool("v", false, "print every episode")
	failFast := flag.Bool("fail-fast", false, "stop at the first violation")
	flag.Parse()

	if *tierRun {
		os.Exit(runTier(*seed, *episodes, *ops, *verbose, *failFast))
	}
	if *clusterRun {
		os.Exit(runCluster(*seed, *episodes, *ops, *classFlag, *verbose, *failFast))
	}

	modes, err := parseModes(*modesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afraidchaos:", err)
		os.Exit(2)
	}

	tallies := make(map[core.Mode]*tally, len(modes))
	for _, m := range modes {
		tallies[m] = &tally{}
	}
	var violations []string

	for i := 0; i < *episodes; i++ {
		mode := modes[i%len(modes)]
		epSeed := *seed + int64(i)
		cfg := schedule(epSeed, mode, *checksums, *flips)
		cfg.Ops = *ops
		cfg.Disks = *disks
		cfg.StripesPerDisk = *stripes

		res, err := fault.RunEpisode(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "afraidchaos: episode seed=%d mode=%v: %v\n", epSeed, mode, err)
			os.Exit(2)
		}
		t := tallies[mode]
		t.note(res)
		if *verbose || len(res.Violations) > 0 {
			fmt.Printf("seed=%-6d %-8v %s\n", epSeed, mode, describe(res))
		}
		for _, v := range res.Violations {
			violations = append(violations,
				fmt.Sprintf("seed=%d mode=%v: %s\n  repro: afraidchaos -seed %d -episodes 1 -modes %v -checksums=%v -flips=%v",
					epSeed, mode, v, epSeed, mode, *checksums, *flips))
		}
		if *failFast && len(violations) > 0 {
			break
		}
	}

	fmt.Printf("\n%-8s %9s %9s %6s %9s %6s %11s %9s %6s %9s %6s %11s\n",
		"policy", "episodes", "survived", "lost", "violated", "crash", "lost-bytes", "repaired",
		"flips", "csum-fix", "csum-lost", "full-stripe")
	for _, m := range modes {
		t := tallies[m]
		fmt.Printf("%-8v %9d %9d %6d %9d %6d %11d %9d %6d %9d %6d %11d\n",
			m, t.episodes, t.survived, t.lost, t.violated, t.crashed, t.lostBytes, t.recovered,
			t.flips, t.csumRepaired, t.csumLost, t.fullStripe)
	}

	if len(violations) > 0 {
		fmt.Printf("\n%d VIOLATION(S):\n", len(violations))
		for _, v := range violations {
			fmt.Println(" ", v)
		}
		os.Exit(1)
	}
	// Coverage gate, as for the cluster's fault classes: a policy that
	// keeps parity and wrote no full stripe all run left the full-stripe
	// write untested; fail loudly rather than report a vacuous pass.
	gaps := 0
	for _, m := range modes {
		if t := tallies[m]; m != core.Raid0 && t.episodes > 0 && t.fullStripe == 0 {
			fmt.Printf("coverage gap: %d %v episodes, no full-stripe write in any\n", t.episodes, m)
			gaps++
		}
	}
	if gaps > 0 {
		os.Exit(1)
	}
	fmt.Println("\nno invariant violations")
}

// runTier drives seeded hybrid-tier episodes: every fourth episode is
// fault-free, and the rest mix power cuts (torn mid-promote,
// mid-demote or mid-mirror-write depending on the seed), extent-map
// loss, and front-copy fail-stops.
func runTier(seed int64, episodes, ops int, verbose, failFast bool) int {
	var violations []string
	var t struct {
		survived, violated, crashed  int
		promotes, demotes, frontHits uint64
		fullStripe                   uint64
		mapRecovered, copyFailed     int
	}
	for i := 0; i < episodes; i++ {
		epSeed := seed + int64(i)
		cfg := tierSchedule(epSeed)
		cfg.Ops = ops
		res, err := tier.RunChaosEpisode(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "afraidchaos: tier episode seed=%d: %v\n", epSeed, err)
			return 2
		}
		if len(res.Violations) > 0 {
			t.violated++
		} else {
			t.survived++
		}
		if res.Crashed {
			t.crashed++
		}
		if res.MapRecovered {
			t.mapRecovered++
		}
		if res.FrontCopyFailed {
			t.copyFailed++
		}
		t.promotes += res.Promotes
		t.demotes += res.Demotes
		t.frontHits += res.FrontHits
		t.fullStripe += res.FullStripeWrites
		if verbose || len(res.Violations) > 0 {
			fmt.Printf("seed=%-6d tier acked=%d failed=%d promotes=%d demotes=%d hits=%d crash=%v maploss=%v copyfail=%v\n",
				epSeed, res.AckedWrites, res.FailedWrites, res.Promotes, res.Demotes,
				res.FrontHits, res.Crashed, res.MapRecovered, res.FrontCopyFailed)
		}
		for _, v := range res.Violations {
			violations = append(violations,
				fmt.Sprintf("seed=%d: %s\n  repro: afraidchaos -tier -seed %d -episodes 1", epSeed, v, epSeed))
		}
		if failFast && len(violations) > 0 {
			break
		}
	}
	fmt.Printf("\ntier: %d episodes, %d survived, %d violated, %d crashed, %d map-loss recoveries, %d copy fail-stops\n",
		episodes, t.survived, t.violated, t.crashed, t.mapRecovered, t.copyFailed)
	fmt.Printf("tier: %d promotes, %d demotes, %d front hits, %d back-store full-stripe writes\n",
		t.promotes, t.demotes, t.frontHits, t.fullStripe)
	if len(violations) > 0 {
		fmt.Printf("\n%d VIOLATION(S):\n", len(violations))
		for _, v := range violations {
			fmt.Println(" ", v)
		}
		return 1
	}
	if t.fullStripe == 0 {
		fmt.Printf("coverage gap: %d tier episodes, no full-stripe write reached the back store\n", episodes)
		return 1
	}
	fmt.Println("\nno invariant violations")
	return 0
}

// tierSchedule derives a tier episode's fault plan from its seed.
func tierSchedule(epSeed int64) tier.ChaosConfig {
	rng := rand.New(rand.NewSource(epSeed ^ 0x7ae5))
	cfg := tier.ChaosConfig{Seed: epSeed}
	cfg.PowerCut = rng.Float64() < 0.6
	if cfg.PowerCut {
		cfg.DropTierMap = rng.Float64() < 0.25
	}
	if !cfg.DropTierMap {
		// Map loss plus a dead mirror copy is a double failure outside
		// the contract; the harness would clamp it anyway.
		cfg.FrontCopyFail = rng.Float64() < 0.3
	}
	if rng.Float64() < 0.3 {
		cfg.FrontPairs = 2
	}
	return cfg
}

// schedule derives an episode's fault plan from its seed, independently
// of the workload stream (which RunEpisode seeds itself).
func schedule(epSeed int64, mode core.Mode, checksums, flips bool) fault.Config {
	rng := rand.New(rand.NewSource(epSeed ^ 0x5eed))
	cfg := fault.Config{Seed: epSeed, Mode: mode, Checksums: checksums}
	if flips {
		cfg.FlipBits = rng.Intn(3)
		cfg.ReadRot = rng.Intn(2)
	}
	cfg.PowerCut = rng.Float64() < 0.5
	deferredMode := mode == core.Afraid || mode == core.Afraid6
	if cfg.PowerCut && deferredMode {
		cfg.DropNVRAM = rng.Float64() < 0.25
	}
	// RunEpisode caps failures at the mode's redundancy (0 for raid0).
	cfg.DiskFails = rng.Intn(3)
	cfg.Transients = rng.Intn(2)
	if cfg.DiskFails > 0 || cfg.Transients > 0 {
		cfg.Repair = rng.Float64() < 0.9
	}
	if mode == core.Afraid6 {
		cfg.DeferBothParities = rng.Float64() < 0.5
	}
	return cfg
}

type tally struct {
	episodes, survived, lost, violated int
	crashed                            int
	lostBytes                          int64
	recovered                          uint64
	flips                              int
	csumDetected, csumRepaired         uint64
	csumLost                           uint64
	fullStripe                         uint64
}

func (t *tally) note(r *fault.Result) {
	t.episodes++
	switch {
	case len(r.Violations) > 0:
		t.violated++
	case r.LostBytes > 0 || r.ChecksumsLost > 0:
		t.lost++
	default:
		t.survived++
	}
	if r.Crashed {
		t.crashed++
	}
	t.lostBytes += r.LostBytes
	t.recovered += r.RecoveredStripes
	t.flips += r.FlipBits
	t.csumDetected += r.ChecksumsDetected
	t.csumRepaired += r.ChecksumsRepaired
	t.csumLost += r.ChecksumsLost
	t.fullStripe += r.FullStripeWrites
}

func describe(r *fault.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "acked=%d failed=%d", r.AckedWrites, r.FailedWrites)
	if r.Crashed {
		fmt.Fprintf(&b, " crash(dirty=%d holes=%d)", r.DirtyAtCrash, r.HoleStripes)
	}
	if r.NVRAMRebuild {
		b.WriteString(" nvram-rebuild")
	}
	if len(r.FailedDisks) > 0 {
		fmt.Fprintf(&b, " failed-disks=%v", r.FailedDisks)
	}
	if r.LostBytes > 0 {
		fmt.Fprintf(&b, " lost=%dB damaged=%d", r.LostBytes, r.DamagedStripes)
	}
	if r.RecoveredStripes > 0 {
		fmt.Fprintf(&b, " repaired=%d", r.RecoveredStripes)
	}
	if r.FlipBits > 0 {
		fmt.Fprintf(&b, " flips=%d(det=%d rep=%d lost=%d)",
			r.FlipBits, r.ChecksumsDetected, r.ChecksumsRepaired, r.ChecksumsLost)
	}
	if len(r.Violations) > 0 {
		fmt.Fprintf(&b, " VIOLATIONS=%d", len(r.Violations))
	}
	return b.String()
}

func parseModes(s string) ([]core.Mode, error) {
	var modes []core.Mode
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "afraid":
			modes = append(modes, core.Afraid)
		case "raid5":
			modes = append(modes, core.Raid5)
		case "raid0":
			modes = append(modes, core.Raid0)
		case "raid6":
			modes = append(modes, core.Raid6)
		case "afraid6":
			modes = append(modes, core.Afraid6)
		case "":
		default:
			return nil, fmt.Errorf("unknown mode %q", name)
		}
	}
	if len(modes) == 0 {
		return nil, fmt.Errorf("no modes in %q", s)
	}
	return modes, nil
}
