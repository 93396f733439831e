package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"afraid/internal/cluster"
	"afraid/internal/core"
	"afraid/internal/fault"
	"afraid/internal/server"
)

// The -cluster mode audits the network-layer loss contract: a real
// multi-node volume (each member an afraidd over TCP) is driven through
// a fault.Proxy per node, and seeded schedules inject partitions,
// refusals, brownouts, mid-frame resets, frame truncations, and flap
// storms. Every episode ends with a full recovery and a byte-exact
// audit against a shadow: loss must be reported (core.ErrDataLoss),
// confined to stripes written while unredundant, and repairable by
// rewriting — never silent, never outside the dirty set.

// Fault classes, round-robin over episodes (or pinned with -class).
const (
	clsPartition = iota // accept-then-black-hole: TCP up, every request stalls
	clsRefuse           // hard partition: conns reset, dials fail fast
	clsSlow             // brownout: victim answers at ~20x loopback latency
	clsReset            // mid-frame RST after a byte budget
	clsTruncate         // next request frame cut short, then RST
	clsFlap             // partition/restore cycles until the damper fences the node
	numClasses
)

var classNames = [numClasses]string{
	"partition", "refuse", "slow", "reset", "truncate", "flap",
}

func parseClusterClass(s string) (int, error) {
	if s == "" {
		return -1, nil
	}
	for i, n := range classNames {
		if n == s {
			return i, nil
		}
	}
	return -1, fmt.Errorf("unknown fault class %q (want one of %v)", s, classNames)
}

// chaosNode is one afraidd in miniature: a server.Server over a
// single-device in-memory store.
type chaosNode struct {
	store *core.Store
	srv   *server.Server
	lis   net.Listener
	done  chan error
}

func newChaosNode(size int64) (*chaosNode, error) {
	st, err := core.Open(
		[]core.BlockDevice{core.NewMemDevice(size)},
		&core.MemNVRAM{},
		core.Options{Mode: core.Raid0, StripeUnit: 8 << 10, ScrubIdle: time.Hour},
	)
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	srv := server.New(st, server.Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	return &chaosNode{store: st, srv: srv, lis: lis, done: done}, nil
}

func (n *chaosNode) addr() string { return n.lis.Addr().String() }

func (n *chaosNode) close() {
	n.srv.Close()
	<-n.done
	n.store.Close()
}

type clusterResult struct {
	class      int
	violations []string
	lossEvents int // reads/writes that reported loss (always legal if counted here)
	lossBytes  int64

	failovers, hedged, hedgeWins, retries, autoHeals, quarantines uint64
	resets, truncations, refused                                  uint64
	fullStripes                                                   uint64 // full-stripe writes after the fill
}

// exercised reports whether the episode actually hit its fault class's
// target mechanism — the coverage the acceptance run insists on.
func (r *clusterResult) exercised() bool {
	switch r.class {
	case clsPartition, clsRefuse:
		return r.failovers > 0
	case clsSlow:
		return r.hedgeWins > 0
	case clsReset:
		return r.resets > 0
	case clsTruncate:
		return r.truncations > 0
	case clsFlap:
		return r.quarantines > 0
	}
	return false
}

// runCluster drives seeded network-chaos episodes against proxied TCP
// volumes and prints the per-class audit table. Exit 0 means no
// loss-contract violation and full fault-class coverage.
func runCluster(seed int64, episodes, ops int, classFlag string, verbose, failFast bool) int {
	onlyClass, err := parseClusterClass(classFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afraidchaos:", err)
		return 2
	}
	type tally struct {
		episodes, survived, loss, violated, exercised int
	}
	var tallies [numClasses]tally
	var agg clusterResult
	var violations []string

	for i := 0; i < episodes; i++ {
		class := i % numClasses
		if onlyClass >= 0 {
			class = onlyClass
		}
		epSeed := seed + int64(i)
		res, err := runClusterEpisode(epSeed, class, ops)
		if err != nil {
			fmt.Fprintf(os.Stderr, "afraidchaos: cluster episode seed=%d class=%s: %v\n",
				epSeed, classNames[class], err)
			return 2
		}
		t := &tallies[class]
		t.episodes++
		switch {
		case len(res.violations) > 0:
			t.violated++
		case res.lossEvents > 0:
			t.loss++
		default:
			t.survived++
		}
		if res.exercised() {
			t.exercised++
		}
		agg.failovers += res.failovers
		agg.hedged += res.hedged
		agg.hedgeWins += res.hedgeWins
		agg.retries += res.retries
		agg.autoHeals += res.autoHeals
		agg.quarantines += res.quarantines
		agg.resets += res.resets
		agg.truncations += res.truncations
		agg.refused += res.refused
		agg.fullStripes += res.fullStripes
		agg.lossBytes += res.lossBytes
		if verbose || len(res.violations) > 0 {
			fmt.Printf("seed=%-6d %-9s failovers=%d hedges=%d/%d retries=%d heals=%d quar=%d loss=%d viol=%d\n",
				epSeed, classNames[class], res.failovers, res.hedgeWins, res.hedged,
				res.retries, res.autoHeals, res.quarantines, res.lossEvents, len(res.violations))
		}
		for _, v := range res.violations {
			violations = append(violations,
				fmt.Sprintf("seed=%d class=%s: %s\n  repro: afraidchaos -cluster -seed %d -episodes 1 -class %s",
					epSeed, classNames[class], v, epSeed, classNames[class]))
		}
		if failFast && len(violations) > 0 {
			break
		}
	}

	fmt.Printf("\n%-10s %9s %9s %6s %9s %10s\n",
		"class", "episodes", "survived", "lost", "violated", "exercised")
	for c := 0; c < numClasses; c++ {
		t := tallies[c]
		if t.episodes == 0 {
			continue
		}
		fmt.Printf("%-10s %9d %9d %6d %9d %10d\n",
			classNames[c], t.episodes, t.survived, t.loss, t.violated, t.exercised)
	}
	fmt.Printf("\ncluster: %d failovers, %d/%d hedge wins, %d retries, %d auto-heals, %d quarantines\n",
		agg.failovers, agg.hedgeWins, agg.hedged, agg.retries, agg.autoHeals, agg.quarantines)
	fmt.Printf("cluster: %d resets, %d truncations, %d refused dials, %d reported-loss bytes, %d full-stripe writes\n",
		agg.resets, agg.truncations, agg.refused, agg.lossBytes, agg.fullStripes)

	if len(violations) > 0 {
		fmt.Printf("\n%d VIOLATION(S):\n", len(violations))
		for _, v := range violations {
			fmt.Println(" ", v)
		}
		return 1
	}
	// Coverage gate: a chaos run that never exercised its fault class
	// proves nothing; fail loudly rather than report a vacuous pass.
	gaps := 0
	for c := 0; c < numClasses; c++ {
		if tallies[c].episodes > 0 && tallies[c].exercised == 0 {
			fmt.Printf("coverage gap: %d %s episodes, none exercised the fault\n",
				tallies[c].episodes, classNames[c])
			gaps++
		}
	}
	if agg.fullStripes == 0 {
		fmt.Printf("coverage gap: %d episodes, no full-stripe write once the faults began\n", episodes)
		gaps++
	}
	if gaps > 0 {
		return 1
	}
	fmt.Println("\nno loss-contract violations")
	return 0
}

// runClusterEpisode builds a fresh 4-node proxied TCP volume, injects
// one fault class, recovers, and audits. Returned violations break the
// loss contract; a returned error is harness infrastructure failing.
func runClusterEpisode(epSeed int64, class, ops int) (*clusterResult, error) {
	const (
		nNodes   = 4
		nData    = nNodes - 1
		unit     = int64(8 << 10)
		nodeSize = 32 * unit // 32 stripes per node
		// The share of writes that cover a whole stripe. A stripe with the
		// victim in it takes the degraded protocol, so most of them are not
		// full-stripe writes.
		aligned = 0.25
	)
	if ops <= 0 {
		ops = 40
	}
	res := &clusterResult{class: class}
	rng := rand.New(rand.NewSource(epSeed ^ 0xc1a0))
	ctx := context.Background()

	nodes := make([]*chaosNode, nNodes)
	proxies := make([]*fault.Proxy, nNodes)
	defer func() {
		for _, p := range proxies {
			if p != nil {
				p.Close()
			}
		}
		for _, n := range nodes {
			if n != nil {
				n.close()
			}
		}
	}()
	members := make([]cluster.Member, nNodes)
	for i := range members {
		n, err := newChaosNode(nodeSize)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
		p, err := fault.NewProxy(n.addr(), epSeed*int64(nNodes)+int64(i))
		if err != nil {
			return nil, err
		}
		proxies[i] = p
		members[i] = cluster.Member{
			Addr: p.Addr(),
			Dial: func() (cluster.Node, error) {
				return server.DialTimeout(p.Addr(), 500*time.Millisecond)
			},
		}
	}
	opts := cluster.Options{
		StripeUnit:      unit,
		NodeTimeout:     200 * time.Millisecond,
		DialTimeout:     150 * time.Millisecond,
		ProbeInterval:   15 * time.Millisecond,
		DrainIdle:       10 * time.Millisecond,
		HedgeDelay:      -1,
		FlapThreshold:   3,
		FlapWindow:      time.Minute,
		QuarantineDecay: -1, // recovery below is the administrator
	}
	if class == clsSlow {
		opts.HedgeDelay = 5 * time.Millisecond
	}
	v, err := cluster.Open(members, opts)
	if err != nil {
		return nil, err
	}
	defer v.Close()

	capacity := v.Capacity()
	stripeBytes := int64(nData) * unit
	shadow := make([]byte, capacity)
	rng.Read(shadow)
	if _, err := v.WriteAt(shadow, 0); err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	if err := v.Flush(ctx); err != nil {
		return nil, fmt.Errorf("fill flush: %w", err)
	}
	filled := v.Obs().Counters()["write.full_stripe"] // the fill is nothing but full stripes

	victim := rng.Intn(nNodes)
	touched := make(map[int64]bool)  // stripes written after the fill flush
	reported := make(map[int64]bool) // stripes whose loss the volume reported
	violate := func(format string, a ...any) {
		res.violations = append(res.violations, fmt.Sprintf(format, a...))
	}

	wbuf := make([]byte, stripeBytes)
	rbuf := make([]byte, unit)
	writeOne := func() {
		// One unit, or — a share of the time — the whole stripe, which the
		// volume writes with its parity while every node answers and under
		// the degraded protocol once one does not.
		off, wbuf := rng.Int63n(capacity/unit)*unit, wbuf[:unit]
		if rng.Float64() < aligned {
			off, wbuf = off/stripeBytes*stripeBytes, wbuf[:stripeBytes]
		}
		st := off / stripeBytes
		rng.Read(wbuf)
		_, err := v.WriteAt(wbuf, off)
		switch {
		case err == nil:
			copy(shadow[off:], wbuf)
			touched[st] = true
		case errors.Is(err, core.ErrDataLoss):
			// Legal only because the write itself dirtied the stripe; the
			// content is now indeterminate until the recovery rewrite.
			touched[st] = true
			reported[st] = true
			res.lossEvents++
		default:
			violate("write at %d: %v", off, err)
		}
	}
	readOne := func() {
		off := rng.Int63n(capacity/unit) * unit
		st := off / stripeBytes
		_, err := v.ReadAt(rbuf, off)
		switch {
		case err == nil:
			if !reported[st] && !bytes.Equal(rbuf, shadow[off:off+unit]) {
				violate("silent divergence at offset %d (stripe %d)", off, st)
			}
		case errors.Is(err, core.ErrDataLoss):
			if !touched[st] {
				violate("loss reported on stripe %d, which was never unredundant", st)
			}
			reported[st] = true
			res.lossEvents++
		default:
			violate("read at %d: %v", off, err)
		}
	}
	mixed := func(n int) {
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				readOne()
			} else {
				writeOne()
			}
		}
	}
	waitCond := func(d time.Duration, cond func() bool) bool {
		deadline := time.Now().Add(d)
		for !cond() {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(2 * time.Millisecond)
		}
		return true
	}

	// Inject the episode's fault and run the workload through it.
	switch class {
	case clsPartition:
		proxies[victim].Partition()
		mixed(ops)
	case clsRefuse:
		proxies[victim].Refuse()
		mixed(ops)
	case clsSlow:
		// Victim answers everything, just slowly; hedged reads must hide
		// the tail without a demotion.
		proxies[victim].SetLatency(8*time.Millisecond, 8*time.Millisecond, 4*time.Millisecond)
		for i := 0; i < ops; i++ {
			if i%4 == 3 {
				writeOne()
			} else {
				readOne()
			}
		}
	case clsReset:
		proxies[victim].ResetAfter(int64(2000 + rng.Intn(6000)))
		mixed(ops)
	case clsTruncate:
		proxies[victim].TruncateNext(int64(4 + rng.Intn(60)))
		mixed(ops)
	case clsFlap:
		// Partition/restore cycles; the prober redials and auto-heals each
		// time until the flap damper quarantines the node.
		for cycle := 0; cycle < 8; cycle++ {
			proxies[victim].Partition()
			if !waitCond(5*time.Second, func() bool {
				s := v.NodeStates()[victim].State
				return s == cluster.StateDown || s == cluster.StateQuarantined
			}) {
				violate("flap cycle %d: prober never demoted the partitioned node", cycle)
				break
			}
			proxies[victim].Restore()
			if !waitCond(5*time.Second, func() bool {
				s := v.NodeStates()[victim].State
				// Healing counts as back up: the node is reachable but
				// still carries stale marks from the previous cycle.
				return s == cluster.StateUp || s == cluster.StateHealing ||
					s == cluster.StateQuarantined
			}) {
				violate("flap cycle %d: node neither redialed nor quarantined", cycle)
				break
			}
			if v.NodeStates()[victim].State == cluster.StateQuarantined {
				break
			}
			mixed(3)
		}
		if st := v.Stats(); st.Quarantines > 0 {
			if st.AutoHeals > uint64(opts.FlapThreshold)+2 {
				violate("heal storm: %d auto-heals before the damper tripped (threshold %d)",
					st.AutoHeals, opts.FlapThreshold)
			}
		}
	}

	// Recovery: the fault clears; an administrator heals the victim (also
	// lifting any quarantine), rewrites whatever the volume reported
	// lost, and the volume must converge to clean, redundant, byte-exact.
	//
	// Quiesce before the heal: requests that were in flight when the
	// link failed — black-holed mid-stream, for instance — are delivered
	// once it is restored (there is no write fencing on the wire). They
	// all target stripes the volume already marked stale, so letting
	// them land first means the rebuild writes last. The prober's
	// auto-heal applies the same settle.
	proxies[victim].Restore()
	time.Sleep(250 * time.Millisecond)
	healDeadline := time.Now().Add(15 * time.Second)
	for {
		rep, healErr := v.HealNode(ctx, victim, false)
		if healErr == nil {
			for _, st := range rep.Lost {
				if !touched[st] {
					violate("heal reported stripe %d lost, but it was never unredundant", st)
				}
				reported[st] = true
			}
			res.lossBytes += int64(len(rep.Lost)) * stripeBytes
			if rep.Remaining == 0 {
				break
			}
		}
		if time.Now().After(healDeadline) {
			violate("heal never converged: %v", healErr)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for st := range reported {
		off := st * stripeBytes
		if _, err := v.WriteAt(shadow[off:off+stripeBytes], off); err != nil {
			violate("rewrite of reported-loss stripe %d failed: %v", st, err)
		}
	}
	if err := v.Flush(ctx); err != nil {
		violate("recovery flush: %v", err)
	}
	if !waitCond(10*time.Second, func() bool {
		s := v.NodeStates()[victim]
		return s.State == cluster.StateUp && s.StaleStripes == 0
	}) {
		s := v.NodeStates()[victim]
		violate("victim never returned to clean service (state=%v stale=%d)", s.State, s.StaleStripes)
	}

	got := make([]byte, capacity)
	if _, err := v.ReadAt(got, 0); err != nil {
		violate("final read: %v", err)
	} else if !bytes.Equal(got, shadow) {
		violate("volume diverged from shadow after recovery")
	}
	if bad, skipped, err := v.VerifyParity(ctx); err != nil {
		violate("parity verify: %v", err)
	} else {
		if len(bad) > 0 {
			violate("parity mismatch on stripes %v after recovery", bad)
		}
		if skipped > 0 {
			violate("%d stripes unverifiable after recovery", skipped)
		}
	}

	st := v.Stats()
	res.failovers = st.NodeFailovers
	res.hedged = st.HedgedReads
	res.hedgeWins = st.HedgeWins
	res.retries = st.Retries
	res.autoHeals = st.AutoHeals
	res.quarantines = st.Quarantines
	ps := proxies[victim].Stats()
	res.resets = uint64(ps.Resets)
	res.truncations = uint64(ps.Truncations)
	res.refused = uint64(ps.Refused)
	res.fullStripes = v.Obs().Counters()["write.full_stripe"] - filled
	return res, nil
}
