package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"afraid/internal/core"
	"afraid/internal/obs"
	"afraid/internal/server"
)

// volObs is the volume's instrumentation: per-node read and write latency,
// which the hedge policy reads. Open adopts the store's drain timing as
// drain.stripe.
type volObs struct {
	reg                 *obs.Registry
	nodeRead, nodeWrite []*obs.Histogram
}

func newVolObs(n int) *volObs {
	ob := &volObs{reg: obs.NewRegistry(), nodeRead: make([]*obs.Histogram, n), nodeWrite: make([]*obs.Histogram, n)}
	for i := 0; i < n; i++ {
		ob.nodeRead[i] = ob.reg.Histogram(fmt.Sprintf("node%d.read", i))
		ob.nodeWrite[i] = ob.reg.Histogram(fmt.Sprintf("node%d.write", i))
	}
	return ob
}

// Obs exposes the volume's metrics registry (per-node read/write
// latency, drain time per stripe) for status tooling.
func (v *Volume) Obs() *obs.Registry { return v.ob.reg }

// member is one node slot: the store's block device for it, and the
// volume's state of the node behind it. It holds the connection under a
// generation — bumped per (re)dial, so a failure seen on an old connection
// cannot demote a fresh one — applies NodeTimeout, times the node's I/O
// and sorts its errors into the store's member classes (classify).
type member struct {
	v    *Volume
	idx  int
	addr string
	dial func() (Node, error)

	// Guarded by Volume.meta. The units the node missed are the store's.
	dev     core.BlockDevice // the device the store holds in this slot: the member, or a full heal's fresh adapter
	node    Node             // nil while the node is down
	lastErr error
	gen     uint64

	// Flap damping and prober state, guarded by Volume.meta.
	failTimes    []time.Time   // recent demotions, pruned to flapWindow
	consecFails  int           // demotions since the last clean heal
	quarantined  bool          // fenced off from prober redial/auto-heal
	quarantineAt time.Time     // when the fence went up (for QuarantineDecay)
	probeBackoff time.Duration // current redial backoff (0 = ProbeInterval)
	nextProbe    time.Time     // earliest next redial attempt
	healAt       time.Time     // when the auto-heal may start (zero: none due)
	probing      bool          // a probe of this node is in flight
	healing      bool          // a background heal of this node is in flight
}

// fresh is a full heal's adapter for a member: a device the store has not
// seen in the slot, so it takes the node as a replacement, stale everywhere.
type fresh struct{ *member }

// conn snapshots the member's connection for one operation.
func (m *member) conn() (n Node, gen uint64, ok bool) {
	m.v.meta.Lock()
	defer m.v.meta.Unlock()
	return m.node, m.gen, m.node != nil
}

// ReadAt implements core.BlockDevice.
func (m *member) ReadAt(p []byte, off int64) (int, error) {
	return m.io(context.Background(), p, off, false)
}

// WriteAt implements core.BlockDevice.
func (m *member) WriteAt(p []byte, off int64) (int, error) {
	return m.io(context.Background(), p, off, true)
}

// ReadAtContext reads from the node under ctx and the node deadline.
func (m *member) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	return m.io(ctx, p, off, false)
}

// WriteAtContext writes to the node under ctx and the node deadline.
func (m *member) WriteAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	return m.io(ctx, p, off, true)
}

// WriteVecAtContext writes bufs back to back at off as one node call, under
// ctx and one node deadline: one request to a node that takes a vector
// (server.Client), one write per buffer to any other.
func (m *member) WriteVecAtContext(ctx context.Context, bufs [][]byte, off int64) (int, error) {
	return m.io(ctx, nil, off, true, bufs...)
}

// io moves p, or the buffers of vec back to back, between off on the node
// and memory.
func (m *member) io(ctx context.Context, p []byte, off int64, write bool, vec ...[]byte) (int, error) {
	v := m.v
	n, gen, ok := m.conn()
	if !ok {
		return 0, v.failStop(m.idx, fmt.Errorf("%w: node %d (%s)", ErrNodeDown, m.idx, m.addr))
	}
	cctx, cancel := v.nodeCtx(ctx)
	t0 := v.opts.now()
	var err error
	switch {
	case !write:
		_, err = n.ReadAtContext(cctx, p, off)
	case vec == nil:
		_, err = n.WriteAtContext(cctx, p, off)
	default:
		if vn, ok := n.(interface {
			WriteVecAtContext(ctx context.Context, bufs [][]byte, off int64) (int, error)
		}); ok {
			_, err = vn.WriteVecAtContext(cctx, vec, off)
			break
		}
		for _, b := range vec {
			if _, err = n.WriteAtContext(cctx, b, off); err != nil {
				break
			}
			off += int64(len(b))
		}
	}
	h := v.ob.nodeRead[m.idx]
	if write {
		h = v.ob.nodeWrite[m.idx]
	}
	h.Observe(v.opts.now().Sub(t0))
	cancel()
	if err = v.classify(ctx, m.idx, gen, err); err != nil {
		return 0, err
	}
	size := len(p)
	for _, b := range vec {
		size += len(b)
	}
	return size, nil
}

// Size is what each node contributes to the volume.
func (m *member) Size() int64 { return m.v.size }

// Close closes the node's connection.
func (m *member) Close() error {
	m.v.meta.Lock()
	n := m.node
	m.node = nil
	m.v.meta.Unlock()
	if n == nil {
		return nil
	}
	return n.Close()
}

// Fail demotes the node, as if its next operation had failed: the store's
// FailDisk calls it.
func (m *member) Fail() {
	m.v.meta.Lock()
	gen := m.gen
	m.v.meta.Unlock()
	m.v.markDown(m.idx, gen, errors.New("administratively failed"))
}

// HedgeDelay is when the store hedges a read of the node (hedgeDelay).
func (m *member) HedgeDelay() time.Duration { return m.v.hedgeDelay() }

// nodeCtx derives the per-node operation deadline, NodeTimeout.
func (v *Volume) nodeCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if v.opts.NodeTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, v.opts.NodeTimeout)
}

// classify decides whether an operation error means the *node* is gone —
// demote it and hand the store a fail-stop failure, which it works around
// — or the operation merely failed: a node's own ErrDataLoss is a lost
// unit the store solves from redundancy, and anything else passes through.
// A caller-cancelled context is never blamed on the node.
func (v *Volume) classify(ctx context.Context, i int, gen uint64, err error) error {
	switch {
	case err == nil:
		return nil
	case ctx.Err() != nil:
		return ctx.Err()
	case !isNodeDownErr(err):
		return err
	}
	v.markDown(i, gen, err)
	return v.failStop(i, err)
}

// failStop is a node failure as a member reports it to the store, which
// re-runs the span around the node: a retry.
func (v *Volume) failStop(i int, err error) error {
	v.meta.Lock()
	v.stats.Retries++
	v.meta.Unlock()
	return fmt.Errorf("%w: %w: node %d: %v", core.ErrDeviceFailed, ErrNodeDown, i, err)
}

// isNodeDownErr reports whether err indicates the node (or the path to
// it) is gone, as opposed to a request-level failure like ErrDataLoss
// that the node itself reported. An in-process node reports it as its
// device failing.
func isNodeDownErr(err error) bool {
	var ne net.Error
	return errors.Is(err, core.ErrDeviceFailed) ||
		errors.Is(err, server.ErrConnectionLost) || errors.Is(err, server.ErrShutdown) ||
		errors.Is(err, context.DeadlineExceeded) || // NodeTimeout fired
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &ne)
}

// The flap damper: a node demoted FlapThreshold times inside flapWindow is
// quarantined — the prober leaves it alone until HealNode or
// Options.QuarantineDecay.
const (
	FlapThreshold = 3
	flapWindow    = time.Minute
)

// markDown takes node i down, unless gen says a redial got
// there first. Each demotion is a flap event: FlapThreshold of them inside
// flapWindow quarantine the node, fencing it off from the prober's
// redial/auto-heal cycle, which ends the heal storm a flapping node drives.
func (v *Volume) markDown(i int, gen uint64, cause error) {
	v.meta.Lock()
	m := v.nodes[i]
	old := m.node
	if m.gen != gen || old == nil {
		v.meta.Unlock()
		return
	}
	m.lastErr, m.node, m.healAt = cause, nil, time.Time{}
	v.stats.NodeFailovers++
	m.consecFails++
	now := v.opts.now()
	cut := now.Add(-flapWindow)
	m.failTimes = append(slices.DeleteFunc(m.failTimes, func(t time.Time) bool { return !t.After(cut) }), now)
	quarantined := len(m.failTimes) >= FlapThreshold && !m.quarantined
	if quarantined {
		m.quarantined, m.quarantineAt = true, now
		v.stats.Quarantines++
	}
	fails := len(m.failTimes)
	v.meta.Unlock()
	go old.Close()
	v.logf("cluster: node %d (%s) down: %v", i, m.addr, cause)
	if quarantined {
		v.logf("cluster: node %d (%s) QUARANTINED: %d failures within %v; no auto-heal until cleared",
			i, m.addr, fails, flapWindow)
	}
}

func (v *Volume) clearQuarantineLocked(m *member) {
	m.quarantined, m.failTimes = false, nil
	m.probeBackoff, m.nextProbe = 0, time.Time{}
}

func (v *Volume) logf(format string, args ...any) {
	if v.opts.Logf != nil {
		v.opts.Logf(format, args...)
	}
}

// probeLoop is the optional health prober: each ProbeInterval it wakes
// for one probe.
func (v *Volume) probeLoop() {
	defer v.wg.Done()
	t := time.NewTicker(v.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-v.bgCtx.Done():
			return
		case <-t.C:
		}
		v.probe()
	}
}

// probe is one prober tick, on one reading of the volume's clock.
func (v *Volume) probe() {
	now := v.opts.now()
	for i := range v.nodes {
		v.probeOne(i, now)
	}
}

// probeOne is node i's part of a probe at now. It starts the node's
// auto-heal once its settle has passed. It pings an up node, so a silently
// dead one is demoted before a write trips over it, and redials a down one
// unless a redial backoff or a quarantine holds it back; a quarantine past
// its decay is lifted here, and logged once the volume is unlocked, as
// markDown logs. One probe of a node is in flight at a time, so a wedged
// node delays no other.
func (v *Volume) probeOne(i int, now time.Time) {
	m := v.nodes[i]
	decayed := false
	v.meta.Lock()
	defer func() {
		v.meta.Unlock()
		if decayed {
			v.logf("cluster: node %d (%s) quarantine decayed, probing again", i, m.addr)
		}
	}()
	if v.bgCtx.Err() != nil {
		return
	}
	if !m.healing && !m.healAt.IsZero() && !now.Before(m.healAt) {
		m.healing, m.healAt = true, time.Time{}
		v.stats.AutoHeals++
		v.wg.Add(1)
		go v.autoHeal(i)
	}
	if m.probing {
		return
	}
	if m.node == nil {
		if m.quarantined {
			if v.opts.QuarantineDecay < 0 || now.Sub(m.quarantineAt) < v.opts.QuarantineDecay {
				return
			}
			v.clearQuarantineLocked(m)
			decayed = true
		}
		if m.dial == nil || now.Before(m.nextProbe) {
			return
		}
	}
	m.probing = true
	v.wg.Add(1)
	go v.probeNode(i)
}

// probeNode pings an up node, failing it if it is gone, or redials a down
// one. A node still unreachable backs off: from ProbeInterval, doubling up
// to 8 of them or a second. A redialed node's auto-heal waits out a settle
// of NodeTimeout, capped at 500 ms, so that the writes in flight when its
// link failed land before the rebuild's (DESIGN.md §10).
func (v *Volume) probeNode(i int) {
	defer v.wg.Done()
	m := v.nodes[i]
	v.meta.Lock()
	n, gen := m.node, m.gen
	v.meta.Unlock()
	if n != nil {
		ctx, cancel := context.WithTimeout(v.bgCtx, v.opts.NodeTimeout)
		if err := n.Ping(ctx); err != nil && isNodeDownErr(err) {
			v.markDown(i, gen, err)
			v.st.FailDisk(i) // the store works around it before an I/O trips over it
		}
		cancel()
	} else {
		err := v.redialNode(i)
		now := v.opts.now()
		v.meta.Lock()
		if err != nil {
			m.probeBackoff = min(max(2*m.probeBackoff, v.opts.ProbeInterval), max(8*v.opts.ProbeInterval, time.Second))
		} else {
			m.probeBackoff = 0
			if m.node != nil { // not demoted again since the redial
				m.healAt = now.Add(min(v.opts.NodeTimeout, 500*time.Millisecond))
			}
		}
		m.nextProbe = now.Add(m.probeBackoff)
		v.meta.Unlock()
	}
	v.meta.Lock()
	m.probing = false
	v.meta.Unlock()
}

// autoHeal heals node i under the volume's background context: Close
// ends it, no probe tick does.
func (v *Volume) autoHeal(i int) {
	defer v.wg.Done()
	m := v.nodes[i]
	v.logf("cluster: node %d (%s) back up, auto-heal started", i, m.addr)
	if rep, err := v.healNode(v.bgCtx, i, false, false); err != nil {
		v.logf("cluster: auto-heal node %d: %v", i, err)
	} else {
		v.logf("cluster: auto-heal node %d done: healed=%d lost=%d remaining=%d",
			i, rep.Healed, len(rep.Lost), rep.Remaining)
	}
	v.meta.Lock()
	m.healing = false
	v.meta.Unlock()
}

// The hedge race itself is the store's (core.Store hedges a node's read
// when the node's HedgeDelay is positive); the volume keeps the policy
// that sets the delay.

const (
	// hedgeAutoDefault is the auto-mode delay before enough node reads
	// exist to derive a p99 (millisecond scale: network volumes live
	// there, and local test nodes answer far below it).
	hedgeAutoDefault = 2 * time.Millisecond
	// hedgeAutoFloor keeps the derived delay from collapsing to the
	// bucket floor on very fast nodes, where a hedge would fire on
	// nearly every read and double the cluster's read load.
	hedgeAutoFloor = 500 * time.Microsecond
	// hedgeMinSamples gates auto mode on real signal.
	hedgeMinSamples = 64
	// hedgeEvalEvery bounds how often auto mode re-merges the per-node
	// read histograms; between evaluations the cached delay is served.
	hedgeEvalEvery = 250 * time.Millisecond
)

// hedgeDelay resolves the current hedge delay: Options.HedgeDelay when
// fixed, 0 when disabled, otherwise the cached p99 of node reads
// clamped to [hedgeAutoFloor, NodeTimeout/2].
func (v *Volume) hedgeDelay() time.Duration {
	if hd := v.opts.HedgeDelay; hd != 0 {
		if hd < 0 {
			return 0
		}
		return hd
	}
	now := v.opts.now().UnixNano()
	if at := v.hedgeEval.Load(); at != 0 && now-at < int64(hedgeEvalEvery) {
		return time.Duration(v.hedgeNS.Load())
	}
	var s obs.Snapshot
	for _, h := range v.ob.nodeRead {
		snap := h.Snapshot()
		s.Merge(&snap)
	}
	d := hedgeAutoDefault
	if s.Count >= hedgeMinSamples {
		d = max(s.Quantile(0.99), hedgeAutoFloor)
	}
	if v.opts.NodeTimeout > 0 && d > v.opts.NodeTimeout/2 {
		d = v.opts.NodeTimeout / 2
	}
	v.hedgeNS.Store(int64(d))
	v.hedgeEval.Store(now)
	return d
}
