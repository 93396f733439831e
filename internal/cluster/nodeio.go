package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"afraid/internal/obs"
	"afraid/internal/server"
)

// volObs bundles the volume's latency instrumentation: one read and one
// write histogram per node (so a slow member stands out in Summaries),
// plus drain and heal timings.
type volObs struct {
	reg       *obs.Registry
	nodeRead  []*obs.Histogram
	nodeWrite []*obs.Histogram
	drain     *obs.Histogram
	heal      *obs.Histogram
	readOp    *obs.Histogram // whole-volume read latency (what hedging bends)
	writeOp   *obs.Histogram // whole-volume write latency
	parity    *obs.Histogram // in-memory parity compute (the stripe images report it)

	fullStripe *obs.Counter // spans written by writeFullStripe
}

func newVolObs(n int) *volObs {
	ob := &volObs{
		reg:       obs.NewRegistry(),
		nodeRead:  make([]*obs.Histogram, n),
		nodeWrite: make([]*obs.Histogram, n),
	}
	for i := 0; i < n; i++ {
		ob.nodeRead[i] = ob.reg.Histogram(fmt.Sprintf("node%d.read", i))
		ob.nodeWrite[i] = ob.reg.Histogram(fmt.Sprintf("node%d.write", i))
	}
	ob.drain = ob.reg.Histogram("drain.stripe")
	ob.heal = ob.reg.Histogram("heal.stripe")
	ob.readOp = ob.reg.Histogram("read.op")
	ob.writeOp = ob.reg.Histogram("write.op")
	ob.parity = ob.reg.Histogram("parity.compute")
	ob.fullStripe = ob.reg.Counter("write.full_stripe")
	return ob
}

// Obs exposes the volume's metrics registry (per-node read/write
// latency, drain and heal timings) for status tooling.
func (v *Volume) Obs() *obs.Registry { return v.ob.reg }

// nodeCtx derives the per-node operation deadline. It is the volume's
// slow-node bound: a member that exceeds it is treated as down rather
// than allowed to stall every stripe it participates in.
func (v *Volume) nodeCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if v.opts.NodeTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, v.opts.NodeTimeout)
}

// grab snapshots the member's connection for one operation.
func (v *Volume) grab(i int) (n Node, gen uint64, err error) {
	v.meta.Lock()
	defer v.meta.Unlock()
	m := v.nodes[i]
	if m.state != StateUp || m.node == nil {
		return nil, 0, fmt.Errorf("%w: node %d (%s)", ErrNodeDown, i, m.addr)
	}
	return m.node, m.gen, nil
}

// nodeRead fills p from node i at off, observing latency and demoting
// the node on a connection-class failure.
func (v *Volume) nodeRead(ctx context.Context, i int, p []byte, off int64) error {
	n, gen, err := v.grab(i)
	if err != nil {
		return err
	}
	cctx, cancel := v.nodeCtx(ctx)
	t0 := time.Now()
	_, err = n.ReadAtContext(cctx, p, off)
	cancel()
	v.ob.nodeRead[i].Observe(time.Since(t0))
	return v.classify(ctx, i, gen, err)
}

// nodeWrite writes p to node i at off. A write that *fails mid-op*
// leaves the target unit torn — old, new, or mixed — so the unit is
// marked stale for its stripe before the error propagates: the volume
// never trusts bytes whose write it cannot prove completed. (Every
// nodeWrite targets a single stripe unit, so the stripe is off's.)
func (v *Volume) nodeWrite(ctx context.Context, i int, p []byte, off int64) error {
	n, gen, err := v.grab(i)
	if err != nil {
		return err
	}
	cctx, cancel := v.nodeCtx(ctx)
	t0 := time.Now()
	_, err = n.WriteAtContext(cctx, p, off)
	cancel()
	v.ob.nodeWrite[i].Observe(time.Since(t0))
	if err != nil {
		st := off / v.geo.StripeUnit
		v.eng.MarkStale(i, st, st+1) // best effort; the bit stands in memory
	}
	return v.classify(ctx, i, gen, err)
}

// classify decides whether an operation error means the *node* is gone
// (demote, return ErrNodeDown so span loops re-route) or the operation
// merely failed (pass through). A caller-cancelled context is never
// blamed on the node.
func (v *Volume) classify(ctx context.Context, i int, gen uint64, err error) error {
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if !isNodeDownErr(err) {
		return err
	}
	v.markDown(i, gen, err)
	return fmt.Errorf("%w: node %d: %v", ErrNodeDown, i, err)
}

// isNodeDownErr reports whether err indicates the node (or the path to
// it) is gone, as opposed to a request-level failure like ErrDataLoss
// that the node itself reported.
func isNodeDownErr(err error) bool {
	if errors.Is(err, ErrNodeDown) || // FaultNode injections
		errors.Is(err, server.ErrConnectionLost) ||
		errors.Is(err, server.ErrShutdown) ||
		errors.Is(err, context.DeadlineExceeded) || // NodeTimeout fired
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// markDown transitions node i to StateDown. The gen check makes demote
// racing redial safe: a failure observed on the old connection cannot
// kill a freshly dialed one. Each demotion is also a flap event: a node
// that accumulates FlapThreshold of them inside FlapWindow is
// quarantined, which fences it off from the prober's redial/auto-heal
// cycle (I/O routing is already around it) and ends the heal storm a
// flapping node otherwise drives.
func (v *Volume) markDown(i int, gen uint64, cause error) {
	v.meta.Lock()
	m := v.nodes[i]
	if m.gen != gen || m.state == StateDown {
		v.meta.Unlock()
		return
	}
	m.state = StateDown
	m.lastErr = cause
	old := m.node
	m.node = nil
	v.stats.NodeFailovers++
	m.consecFails++
	quarantined := false
	if v.opts.FlapThreshold > 0 {
		now := time.Now()
		cut := now.Add(-v.opts.FlapWindow)
		keep := m.failTimes[:0]
		for _, ts := range m.failTimes {
			if ts.After(cut) {
				keep = append(keep, ts)
			}
		}
		m.failTimes = append(keep, now)
		if len(m.failTimes) >= v.opts.FlapThreshold && !m.quarantined {
			m.quarantined = true
			m.quarantineAt = now
			v.stats.Quarantines++
			quarantined = true
		}
	}
	fails := len(m.failTimes)
	v.meta.Unlock()
	if old != nil {
		go old.Close()
	}
	v.logf("cluster: node %d (%s) down: %v", i, m.addr, cause)
	if quarantined {
		v.logf("cluster: node %d (%s) QUARANTINED: %d failures within %v; no auto-heal until cleared",
			i, m.addr, fails, v.opts.FlapWindow)
	}
}

// ClearQuarantine lifts the flap damper's fence from node i, letting
// the prober redial and auto-heal it again — the administrative "I
// fixed the machine" switch. HealNode implies it.
func (v *Volume) ClearQuarantine(i int) error {
	if i < 0 || i >= len(v.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	v.meta.Lock()
	v.clearQuarantineLocked(v.nodes[i])
	v.meta.Unlock()
	return nil
}

func (v *Volume) clearQuarantineLocked(m *member) {
	m.quarantined = false
	m.failTimes = nil
	m.probeBackoff = 0
	m.nextProbe = time.Time{}
}

// FailNode manually demotes a node, as if its next operation had failed
// — the administrative "I am taking this machine away" switch.
func (v *Volume) FailNode(i int) error {
	if i < 0 || i >= len(v.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	v.meta.Lock()
	gen := v.nodes[i].gen
	v.meta.Unlock()
	v.markDown(i, gen, errors.New("administratively failed"))
	return nil
}

func (v *Volume) logf(format string, args ...any) {
	if v.opts.Logf != nil {
		v.opts.Logf(format, args...)
	}
}

// probeLoop is the optional background health prober: it pings up
// nodes so a silently dead one is demoted before a client write trips
// over it, and redials down nodes when they answer again, handing the
// rebuild to a background auto-heal. Every node is probed concurrently
// — one member wedged at NodeTimeout must not delay detection of the
// next by N×timeout — with a per-node in-flight guard so a wedged probe
// never stacks another behind it.
func (v *Volume) probeLoop() {
	defer v.wg.Done()
	t := time.NewTicker(v.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-v.stop:
			return
		case <-t.C:
		}
		for i := range v.nodes {
			if !v.beginProbe(i) {
				continue
			}
			v.wg.Add(1)
			go func(i int) {
				defer v.wg.Done()
				v.probeNode(i)
			}(i)
		}
	}
}

// beginProbe decides whether node i gets a probe this tick and claims
// its in-flight slot. Down nodes are subject to the redial backoff and
// the flap quarantine; a quarantine past its decay is lifted here.
func (v *Volume) beginProbe(i int) bool {
	v.meta.Lock()
	m := v.nodes[i]
	if v.closed || m.probing {
		v.meta.Unlock()
		return false
	}
	decayed := false
	if m.state == StateDown {
		if m.quarantined {
			if v.opts.QuarantineDecay < 0 || time.Since(m.quarantineAt) < v.opts.QuarantineDecay {
				v.meta.Unlock()
				return false
			}
			v.clearQuarantineLocked(m)
			decayed = true
		}
		if m.dial == nil || time.Now().Before(m.nextProbe) {
			v.meta.Unlock()
			return false
		}
	}
	m.probing = true
	v.meta.Unlock()
	if decayed {
		v.logf("cluster: node %d (%s) quarantine decayed, probing again", i, m.addr)
	}
	return true
}

func (v *Volume) probeNode(i int) {
	defer func() {
		v.meta.Lock()
		v.nodes[i].probing = false
		v.meta.Unlock()
	}()
	v.meta.Lock()
	m := v.nodes[i]
	state, n, gen := m.state, m.node, m.gen
	v.meta.Unlock()
	switch {
	case state == StateUp && n != nil:
		ctx, cancel := context.WithTimeout(v.bgCtx, v.opts.NodeTimeout)
		err := n.Ping(ctx)
		cancel()
		if err != nil && isNodeDownErr(err) {
			v.markDown(i, gen, err)
		}
	case state == StateDown:
		if err := v.redialNode(i); err != nil {
			// Still unreachable: back off so a dead node is not hammered
			// every tick: the backoff starts at ProbeInterval and doubles
			// up to 8 of them, or a second if that is longer.
			v.meta.Lock()
			if m.probeBackoff == 0 {
				m.probeBackoff = v.opts.ProbeInterval
			} else {
				m.probeBackoff = min(2*m.probeBackoff, max(8*v.opts.ProbeInterval, time.Second))
			}
			m.nextProbe = time.Now().Add(m.probeBackoff)
			v.meta.Unlock()
			return
		}
		v.meta.Lock()
		m.probeBackoff = 0
		m.nextProbe = time.Time{}
		v.meta.Unlock()
		v.startAutoHeal(i)
	}
}

// startAutoHeal launches one background heal of node i, if none is in
// flight. The heal runs under the volume's background context — a
// generous lifetime ended only by Close, not the prober's tick or
// NodeTimeout — so a large stale backlog is rebuilt once instead of
// being killed mid-sweep and restarted every probe interval.
func (v *Volume) startAutoHeal(i int) {
	v.meta.Lock()
	m := v.nodes[i]
	if v.closed || m.healing {
		v.meta.Unlock()
		return
	}
	m.healing = true
	v.stats.AutoHeals++
	v.wg.Add(1)
	v.meta.Unlock()
	v.logf("cluster: node %d (%s) back up, auto-heal started", i, m.addr)
	go func() {
		defer v.wg.Done()
		// Quiesce before rebuilding: the wire protocol has no write
		// fencing, so a request that was in flight when the link failed
		// can still be delivered now that it is back (network-buffered
		// during a partition, for example). Every such zombie write
		// targets a stripe the marking memory already calls stale — the
		// demotion marked it before rerouting — so letting them land
		// first guarantees the rebuild, not the zombie, writes last.
		// The successful redial proves the link forwards again, so the
		// backlog drains in RTTs; NodeTimeout (capped) is generous.
		settle := v.opts.NodeTimeout
		if settle > 500*time.Millisecond {
			settle = 500 * time.Millisecond
		}
		t := time.NewTimer(settle)
		select {
		case <-v.bgCtx.Done():
			t.Stop()
			v.meta.Lock()
			m.healing = false
			v.meta.Unlock()
			return
		case <-t.C:
		}
		rep, err := v.healNode(v.bgCtx, i, false)
		v.meta.Lock()
		m.healing = false
		v.meta.Unlock()
		if err != nil {
			v.logf("cluster: auto-heal node %d: %v", i, err)
			return
		}
		v.logf("cluster: auto-heal node %d done: healed=%d lost=%d remaining=%d",
			i, rep.Healed, len(rep.Lost), rep.Remaining)
	}()
}
