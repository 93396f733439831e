package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"afraid/internal/cluster"
	"afraid/internal/core"
	"afraid/internal/fault"
	"afraid/internal/obs"
	"afraid/internal/server"
)

// The cluster stack is the network layer's adapter to fault.Run: a real
// multi-node volume (each member a server over TCP) driven through a
// fault.Proxy per node. A schedule injects one network fault class on
// one victim, runs the workload through it, then clears the fault and
// heals; the shared close rewrites what was reported lost, flushes, and
// audits. Loss must be reported (core.ErrDataLoss), confined to stripes
// that were unredundant when the volume declared a node down, and
// repairable by rewriting — never silent.

// Fault classes, round-robin over episodes (or pinned with -class), each
// with the stat key its episodes must move — the mechanism it targets.
var classes = []struct{ name, gate string }{
	{"partition", "cluster.node_failovers"}, // accept-then-black-hole: TCP up, every request stalls
	{"refuse", "cluster.node_failovers"},    // hard partition: conns reset, dials fail fast
	{"slow", "cluster.hedge_wins"},          // brownout: victim answers at ~20x loopback latency
	{"reset", "proxy.resets"},               // mid-frame RST after a byte budget
	{"truncate", "proxy.truncations"},       // next request frame cut short, then RST
	{"flap", "cluster.quarantines"},         // partition/restore cycles until the damper fences the node
}

const classList = "partition, refuse, slow, reset, truncate, flap" // for -class's usage and errors

var clusterColumns = []string{"cluster.node_failovers", "cluster.hedge_wins", "cluster.retries",
	"cluster.auto_heals", "cluster.quarantines", "proxy.resets", "proxy.truncations", "proxy.refused",
	"cluster.write.full_stripe"}

// classRows is one row per fault class (or the one -class pins), each
// building its stack with build.
func classRows(o options, build func(class string, ops int) (fault.Stack, fault.Plan)) ([]row, error) {
	var rows []row
	for _, class := range classes {
		if o.class != "" && o.class != class.name {
			continue
		}
		rows = append(rows, row{
			name:     class.name,
			schedule: func(int64) (fault.Stack, fault.Plan) { return build(class.name, o.ops) },
			gate:     []string{class.gate},
			repro:    "-class " + class.name,
		})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("unknown fault class %q (want one of %s)", o.class, classList)
	}
	return rows, nil
}

func clusterRows(o options) ([]row, error) {
	return classRows(o, func(class string, ops int) (fault.Stack, fault.Plan) {
		c := newClusterStack(class, ops)
		return c, c.plan(c.Inject, c.Heal)
	})
}

// chaosNode is one afraidd in miniature: a server.Server over a backend.
type chaosNode struct {
	srv  *server.Server
	lis  net.Listener
	done chan error
}

// serveNode serves b on addr (a fresh loopback port when empty).
func serveNode(b server.Backend, addr string) (*chaosNode, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	n := &chaosNode{srv: server.New(b, server.Options{}), lis: lis, done: make(chan error, 1)}
	go func() { n.done <- n.srv.Serve(lis) }()
	return n, nil
}

func (n *chaosNode) close() {
	n.srv.Close()
	<-n.done
}

const clusterNodes = 4

// clusterStack is the fault.Stack over a proxied TCP volume.
type clusterStack struct {
	class string
	ops   int
	unit  int64
	// newNode builds what node i serves, and its teardown. The plain
	// cluster serves a single-device in-memory store; the stacked one a
	// tier over a fault-wrapped array.
	newNode func(e *fault.Episode, i int) (server.Backend, func(), error)

	served  []server.Backend // what each node serves, for a test to tamper behind the volume
	stores  []func()
	nodes   []*chaosNode
	proxies []*fault.Proxy
	vol     *cluster.Volume
	opts    cluster.Options
	victim  int
}

func newClusterStack(class string, ops int) *clusterStack {
	if ops <= 0 {
		ops = 40
	}
	c := &clusterStack{class: class, ops: ops, unit: 8 << 10}
	c.newNode = func(*fault.Episode, int) (server.Backend, func(), error) {
		st, err := core.Open(
			[]core.BlockDevice{core.NewMemDevice(32 * c.unit)}, // 32 stripes per node
			&core.MemNVRAM{},
			core.Options{Mode: core.Raid0, StripeUnit: c.unit, ScrubIdle: time.Hour},
		)
		if err != nil {
			return nil, nil, err
		}
		return st, func() { st.Close() }, nil
	}
	return c
}

// plan is the cluster workload shape around the given steps. A brownout
// reads more than it writes, so hedged reads are what the victim's
// latency meets.
func (c *clusterStack) plan(steps ...fault.Step) fault.Plan {
	p := fault.Plan{WriteFrac: 0.65, MaxIO: 3 * c.unit, Fill: true, Steps: steps}
	if c.class == "slow" {
		p.WriteFrac = 0.25
	}
	return p
}

func (c *clusterStack) Open(e *fault.Episode) error {
	members := make([]cluster.Member, clusterNodes)
	for i := range members {
		b, closeStore, err := c.newNode(e, i)
		if err != nil {
			return err
		}
		c.served, c.stores = append(c.served, b), append(c.stores, closeStore)
		n, err := serveNode(b, "")
		if err != nil {
			return err
		}
		c.nodes = append(c.nodes, n)
		p, err := fault.NewProxy(n.lis.Addr().String(), e.Seed*clusterNodes+int64(i))
		if err != nil {
			return err
		}
		c.proxies = append(c.proxies, p)
		members[i] = cluster.Member{
			Addr: p.Addr(),
			Dial: func() (cluster.Node, error) { return server.DialTimeout(p.Addr(), 500*time.Millisecond) },
		}
	}
	c.opts = cluster.Options{
		StripeUnit:      c.unit,
		NodeTimeout:     200 * time.Millisecond,
		DialTimeout:     150 * time.Millisecond,
		ProbeInterval:   15 * time.Millisecond,
		DrainIdle:       10 * time.Millisecond,
		HedgeDelay:      -1,
		FlapThreshold:   3,
		FlapWindow:      time.Minute,
		QuarantineDecay: -1, // Heal below is the administrator
	}
	if c.class == "slow" {
		c.opts.HedgeDelay = 5 * time.Millisecond
	}
	v, err := cluster.Open(members, c.opts)
	if err != nil {
		return err
	}
	c.vol, c.victim = v, e.Rng.Intn(clusterNodes)
	return nil
}

func (c *clusterStack) Close() {
	if c.vol != nil {
		c.vol.Close()
	}
	for _, p := range c.proxies {
		p.Close()
	}
	for _, n := range c.nodes {
		n.close()
	}
	for _, closeStore := range c.stores {
		closeStore()
	}
}

func (c *clusterStack) state(i int) cluster.NodeState { return c.vol.NodeStates()[i].State }

func waitCond(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// Inject is the fault step that puts the episode's network fault class
// on the victim and runs the workload through it.
func (c *clusterStack) Inject(e *fault.Episode) error {
	px := c.proxies[c.victim]
	switch c.class {
	case "partition":
		px.Partition()
	case "refuse":
		px.Refuse()
	case "slow":
		// Victim answers everything, just slowly; hedged reads must hide
		// the tail without a demotion.
		px.SetLatency(8*time.Millisecond, 8*time.Millisecond, 4*time.Millisecond)
	case "reset":
		px.ResetAfter(int64(2000 + e.Rng.Intn(6000)))
	case "truncate":
		px.TruncateNext(int64(4 + e.Rng.Intn(60)))
	case "flap":
		// Partition/restore cycles; the prober redials and auto-heals each
		// time until the flap damper quarantines the node.
		for cycle := 0; cycle < 8; cycle++ {
			px.Partition()
			if !waitCond(5*time.Second, func() bool {
				s := c.state(c.victim)
				return s == cluster.StateDown || s == cluster.StateQuarantined
			}) {
				e.Violatef("flap cycle %d: prober never demoted the partitioned node", cycle)
				break
			}
			e.Sample() // the prober, not an op of ours, declared it down
			px.Restore()
			if !waitCond(5*time.Second, func() bool {
				// Healing counts as back up: the node is reachable but
				// still carries stale marks from the previous cycle.
				return c.state(c.victim) != cluster.StateDown
			}) {
				e.Violatef("flap cycle %d: node neither redialed nor quarantined", cycle)
				break
			}
			if c.state(c.victim) == cluster.StateQuarantined {
				break
			}
			e.Workload(3)
		}
		if st := c.vol.Stats(); st.Quarantines > 0 && st.AutoHeals > uint64(c.opts.FlapThreshold)+2 {
			e.Violatef("heal storm: %d auto-heals before the damper tripped (threshold %d)",
				st.AutoHeals, c.opts.FlapThreshold)
		}
		return nil
	}
	e.Workload(c.ops)
	return nil
}

// Heal is the fault step that ends the fault: the links clear and an
// administrator heals every node that is not in clean service (also
// lifting any quarantine), reporting what the volume calls lost.
//
// Quiesce before the heal: requests that were in flight when the link
// failed — black-holed mid-stream, for instance — are delivered once it
// is restored (there is no write fencing on the wire). The volume works
// around the node until its heal hands it back, so letting them land first
// means every later write, the rebuild's included, lands after them. The
// prober's auto-heal applies the same settle.
func (c *clusterStack) Heal(e *fault.Episode) error {
	for _, px := range c.proxies {
		px.Restore()
	}
	time.Sleep(250 * time.Millisecond)
	ctx := context.Background()
	stripe := c.LossGrain()
	lost := map[int64]bool{}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var pending error
		for i, info := range c.vol.NodeStates() {
			if info.State == cluster.StateUp {
				continue
			}
			rep, err := c.vol.HealNode(ctx, i, false)
			if err == nil && rep.Remaining > 0 {
				err = fmt.Errorf("node %d: %d stripes still need a node that is down", i, rep.Remaining)
			}
			if err != nil {
				pending = err
			}
			for _, st := range rep.Lost {
				lost[st] = true
			}
		}
		if pending == nil {
			break
		}
		if time.Now().After(deadline) {
			e.Violatef("heal never converged: %v", pending)
			break
		}
	}
	var losses []fault.Loss
	for st := range lost {
		losses = append(losses, fault.Loss{Off: st * stripe, Len: stripe})
	}
	e.Lost("heal", losses)
	return nil
}

func (c *clusterStack) ReadAt(p []byte, off int64) (int, error)  { return c.vol.ReadAt(p, off) }
func (c *clusterStack) WriteAt(p []byte, off int64) (int, error) { return c.vol.WriteAt(p, off) }
func (c *clusterStack) Capacity() int64                          { return c.vol.Capacity() }
func (c *clusterStack) LossGrain() int64                         { return c.vol.Geometry().StripeDataBytes() }
func (c *clusterStack) Grains() []fault.Grain                    { return []fault.Grain{{Bytes: c.LossGrain(), Most: 3}} }
func (c *clusterStack) Exposed() []int64                         { return c.vol.DirtyList() }
func (c *clusterStack) Failures() int                            { return int(c.vol.Stats().NodeFailovers) }
func (c *clusterStack) PowerLost() bool                          { return false }

// settle waits for the whole volume, not just the victim, to be back in
// clean service: a bystander that one late answer got demoted may still
// be auto-healing, and neither a flush nor a parity audit means anything
// until it is done.
func (c *clusterStack) settle() error {
	if !waitCond(10*time.Second, func() bool {
		for _, info := range c.vol.NodeStates() {
			if info.State != cluster.StateUp {
				return false
			}
		}
		return true
	}) {
		return fmt.Errorf("volume never returned to clean service: %+v", c.vol.NodeStates())
	}
	return nil
}

func (c *clusterStack) Flush() error {
	if err := c.settle(); err != nil {
		return err
	}
	return c.vol.Flush(context.Background())
}

// Audit verifies every stripe's parity on the settled volume.
func (c *clusterStack) Audit() ([]int64, error) {
	if err := c.settle(); err != nil {
		return nil, err
	}
	bad, skipped, err := c.vol.VerifyParity(context.Background())
	if err == nil && skipped > 0 {
		err = fmt.Errorf("%d stripes unverifiable after recovery", skipped)
	}
	return bad, err
}

// StatMap is the volume's snapshot plus, under "proxy.", what the
// victim's proxy injected.
func (c *clusterStack) StatMap() map[string]int64 {
	m := c.vol.StatMap()
	obs.Flatten(m, "proxy.", nil, c.proxies[c.victim].Stats())
	return m
}

func (c *clusterStack) Classify(err error) fault.Kind {
	if errors.Is(err, core.ErrDataLoss) {
		return fault.KindLoss
	}
	return fault.KindFatal
}
