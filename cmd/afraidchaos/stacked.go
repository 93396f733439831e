package main

import (
	"context"
	"errors"
	"slices"

	"afraid/internal/cluster"
	"afraid/internal/fault"
	"afraid/internal/layout"
	"afraid/internal/server"
	"afraid/internal/tier"
)

// The stacked stack is the cluster stack with every node a whole
// machine: a tier over a checksummed AFRAID store on fault-wrapped
// disks, all on the node's own power line. It adds no oracle and no
// runner: one episode composes the three adapters' fault steps — a
// silent bit flip inside one node's back store (the core adapter's
// Arm), a network fault class on another node (the cluster adapter's
// Inject, then its Heal), and a power cut and recovery of that same
// node's machine under a second stretch of workload (the tier adapter's
// Reboot, then Heal again) — one unavailable node at a time, as single
// parity allows.
type stackedStack struct {
	*clusterStack
	tiers     []*tier.ChaosStack
	gone      map[string]int64 // counters of the node incarnations the power cut ended
	failovers uint64           // the volume's node failovers at the last Exposed
}

func stackedRows(o options) ([]row, error) {
	return classRows(o, func(class string, ops int) (fault.Stack, fault.Plan) {
		s := &stackedStack{clusterStack: newClusterStack(class, ops), gone: map[string]int64{}}
		s.unit = 4096
		s.newNode = func(e *fault.Episode, i int) (server.Backend, func(), error) {
			// 3 data disks x 64 stripes x 512 bytes: 24 cluster units a node.
			// Ops scales the flip's trigger to the few device ops a node sees.
			ts := tier.NewChaosStack(tier.ChaosConfig{
				Back: fault.Config{Checksums: true, FlipBits: 1, StripesPerDisk: 64, Ops: 20},
			})
			if err := ts.Open(e); err != nil {
				return nil, nil, err
			}
			s.tiers = append(s.tiers, ts)
			return s.machine(i), ts.Close, nil
		}
		return s, s.plan(s.Arm, s.Inject, s.Heal, s.PowerCycleVictim, s.Heal)
	})
}

// machine is what node i's server serves: its tier, and the link dying
// with the machine's power — a dead machine does not answer with device
// errors, it stops answering.
type machine struct {
	server.Backend
	off func()
}

func (s *stackedStack) machine(i int) machine {
	return machine{s.tiers[i].Store(), func() { s.proxies[i].Refuse() }}
}

func (m machine) died(err error) error {
	if errors.Is(err, fault.ErrPowerCut) {
		m.off()
	}
	return err
}

func (m machine) ReadContext(ctx context.Context, p []byte, off int64) (int, error) {
	n, err := m.Backend.ReadContext(ctx, p, off)
	return n, m.died(err)
}

func (m machine) WriteContext(ctx context.Context, p []byte, off int64) (int, error) {
	n, err := m.Backend.WriteContext(ctx, p, off)
	return n, m.died(err)
}

func (m machine) FlushContext(ctx context.Context) error { return m.died(m.Backend.FlushContext(ctx)) }

// Arm is the first step, after the fill: a bit flip inside the back
// store of the victim's neighbour.
func (s *stackedStack) Arm(e *fault.Episode) error {
	s.tiers[(s.victim+1)%clusterNodes].Back.Arm(e)
	return nil
}

// PowerCycleVictim is the victim's machine losing power under a second
// stretch of workload (at its end, if the fuse outlives it) and coming
// back: its stores reopen through recovery and a new server process
// serves them on the old address. The link stays down until Heal.
func (s *stackedStack) PowerCycleVictim(e *fault.Episode) error {
	ts := s.tiers[s.victim]
	ts.Back.Line.CutAfter(1 + e.Rng.Int63n(int64(s.ops)*4))
	e.Workload(s.ops)
	ts.Back.Line.Cut()
	s.proxies[s.victim].Refuse()
	for k, v := range ts.StatMap() {
		s.gone[k] += v
	}
	s.gone["fault.power_cycles"]++
	addr := s.nodes[s.victim].lis.Addr().String()
	s.nodes[s.victim].close()
	if err := ts.Reboot(e.Seed); err != nil {
		return err
	}
	n, err := serveNode(s.machine(s.victim), addr)
	if err != nil {
		return err
	}
	s.nodes[s.victim] = n
	return nil
}

// StatMap adds every node's counters, live and gone, to the volume's.
func (s *stackedStack) StatMap() map[string]int64 {
	m := s.clusterStack.StatMap()
	for k, v := range s.gone {
		m[k] += v
	}
	for _, ts := range s.tiers {
		for k, v := range ts.StatMap() {
			m[k] += v
		}
	}
	return m
}

// Failures adds the failures inside every node — bit flips fired, corrupt
// units found — to the volume's: a unit a node cannot vouch for is a
// failure point of the volume too.
func (s *stackedStack) Failures() int {
	n := s.clusterStack.Failures()
	for _, ts := range s.tiers {
		n += ts.Back.Failures()
	}
	return n
}

// Exposed is the volume's exposure rule with the nodes' folded in
// (exposedStripes): the nodes not up, and for each node up the node
// addresses its own back store holds unredundant — fault.Core's Exposed,
// which the tier maps straight onto its back store.
func (s *stackedStack) Exposed() []int64 {
	failovers := s.vol.Stats().NodeFailovers
	moved := failovers != s.failovers
	s.failovers = failovers
	down := 0
	var unvouched [][][2]int64
	for i, n := range s.vol.NodeStates() {
		if n.State != cluster.StateUp {
			down++
			continue
		}
		b := s.tiers[i].Back
		var held [][2]int64
		for _, g := range b.Exposed() {
			held = append(held, [2]int64{g * b.LossGrain(), (g + 1) * b.LossGrain()})
		}
		unvouched = append(unvouched, held)
	}
	return exposedStripes(s.vol.Geometry(), s.vol.DirtyList(), moved || down > 0, down, unvouched)
}

// exposedStripes is a single array's exposure rule (fault.Core's Exposed)
// one level up, its members the nodes. With wide — a node failover since
// the last look, or a node not up — every dirty stripe is exposed, as on
// the plain cluster. And a stripe is exposed whose failed units outnumber
// its fresh parity (none while dirty): one on each of the down nodes, and
// one on each node up whose unit of the stripe overlaps the node address
// ranges it cannot vouch for (unvouched, one list a node).
func exposedStripes(geo layout.Geometry, dirty []int64, wide bool, down int, unvouched [][][2]int64) []int64 {
	var out []int64
	for st := range geo.Stripes() {
		failed, fresh, off := down, geo.Level.ParityUnits(), geo.DiskOffset(st)
		for _, held := range unvouched {
			if slices.ContainsFunc(held, func(r [2]int64) bool { return r[0] < off+geo.StripeUnit && off < r[1] }) {
				failed++
			}
		}
		marked := slices.Contains(dirty, st)
		if marked {
			fresh = 0
		}
		if wide && marked || failed > fresh {
			out = append(out, st)
		}
	}
	return out
}
