package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"afraid/internal/core"
	"afraid/internal/layout"
	"afraid/internal/obs"
	"afraid/internal/server"
)

// Options configures a Volume. The first five are the store's: its stripe
// unit, DirtyThreshold, ScrubIdle, DisableScrubber and ScrubWorkers.
type Options struct {
	// StripeUnit is the bytes each node contributes to one stripe (default
	// 64 KiB: network round trips want fatter units than disks).
	StripeUnit int64
	// MaxDirty bounds the unredundancy window: past this many dirty
	// stripes the drain runs even under load, and at twice it the write
	// path drains a few stripes inline (default 256).
	MaxDirty int64
	// DrainIdle is how long the volume must be quiescent before the
	// background drain rebuilds parity (default 100 ms).
	DrainIdle time.Duration
	// DisableDrain turns the background drain off; parity is then rebuilt
	// only by Flush, ParityPoint and the inline valve.
	DisableDrain bool
	// Workers bounds the stripes drained, healed or verified concurrently
	// (default min(GOMAXPROCS, 4)).
	Workers int
	// NodeTimeout is the per-node operation deadline (default 10 s): how a
	// slow or wedged node is declared down instead of stalling the volume.
	NodeTimeout time.Duration
	// DialTimeout bounds connect+handshake when the volume dials a node
	// (default 5 s).
	DialTimeout time.Duration
	// ProbeInterval, when positive, runs a background health prober that
	// pings up nodes, redials down ones and auto-heals them when they
	// answer again. 0 leaves FailNode and HealNode to the caller.
	ProbeInterval time.Duration
	// HedgeDelay is how long a unit read may go unanswered before it is
	// raced against reconstruction from the other nodes. 0 (the default)
	// derives it from the live p99 of node reads; a negative value
	// disables hedging.
	HedgeDelay time.Duration
	// FlapThreshold is the flap damper: a node demoted this many times
	// inside FlapWindow (default 1 minute) is quarantined — the prober
	// leaves it alone until ClearQuarantine, HealNode or QuarantineDecay
	// (default 5 minutes; negative: only an administrator). Default 3;
	// negative disables damping.
	FlapThreshold   int
	FlapWindow      time.Duration
	QuarantineDecay time.Duration
	// NV, when set, persists the marking memory (dirty map and per-node
	// stale maps), so a restarted volume host resumes where it left off —
	// the paper's NVRAM. An unusable image marks every stripe for rebuild.
	NV core.NVRAM
	// Logf, when set, receives node up/down and heal diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	orDefault(&o.StripeUnit, 64<<10)
	orDefault(&o.MaxDirty, 256)
	orDefault(&o.DrainIdle, 100*time.Millisecond)
	orDefault(&o.NodeTimeout, 10*time.Second)
	orDefault(&o.DialTimeout, 5*time.Second)
	orDefault(&o.Workers, min(runtime.GOMAXPROCS(0), 4))
	orDefault(&o.FlapThreshold, 3)
	orDefault(&o.FlapWindow, time.Minute)
	orDefault(&o.QuarantineDecay, 5*time.Minute)
}

// orDefault sets an unset option to its default.
func orDefault[T comparable](opt *T, def T) {
	var zero T
	if *opt == zero {
		*opt = def
	}
}

// Stats counts volume activity.
type Stats struct {
	Reads, Writes           uint64
	BytesRead, BytesWritten int64
	DegradedReads           uint64 // extents reconstructed around a down node
	DegradedWrites          uint64 // spans written under the synchronous degraded protocol
	ParityDrains            uint64 // stripes made redundant by drains (background, flush, inline)
	InlineDrains            uint64 // stripes drained by the write-path pressure valve
	HealedStripes           uint64 // stripe units rebuilt onto a returned node
	LostStripes             uint64 // stripes reported unrecoverable (dirty at node loss)
	NodeFailovers           uint64 // times a node was declared down
	HedgedReads             uint64 // straggling unit reads re-issued to the reconstruction path
	HedgeWins               uint64 // hedges that answered before the straggler
	Retries                 uint64 // node operations failed over to the degraded path
	RetriesExhausted        uint64 // operations that needed more nodes than were up
	Quarantines             uint64 // nodes fenced off by the flap damper
	AutoHeals               uint64 // background heals started by the prober
	DirtyStripes            int64
	DirtyHighWater          int64 // widest the cluster unredundancy window ever got
	Recovered               bool  // marking memory was unusable; full parity rebuild scheduled
}

// Volume is a distributed AFRAID array: one logical block space striped
// over the member nodes with deferred, cluster-wide parity — a core.Store
// in Afraid mode whose members are the nodes (member, in nodeio.go).
type Volume struct {
	st   *core.Store
	geo  layout.Geometry
	opts Options
	size int64 // what each node contributes: the smallest capacity, in whole units

	meta  sync.Mutex // guards nodes' mutable state and everything below
	nodes []*member
	stats Stats // the store's counters are filled in by Stats()

	ob *volObs
	wg sync.WaitGroup

	// The volume's lifetime: Close cancels it, ending the prober and the
	// background heals.
	bgCtx    context.Context
	bgCancel context.CancelFunc

	// The auto hedge delay (ns) and when it was computed (unix ns).
	hedgeNS, hedgeEval atomic.Int64
}

// Open assembles a volume over the members. Members whose Node is nil
// are dialed; one that cannot be reached opens in StateDown, the volume
// serving degraded around it, and with no record of what it missed it is
// stale on every stripe in the marking memory: suspect until healed.
func Open(members []Member, opts Options) (*Volume, error) {
	opts.fill()
	if len(members) < 3 {
		return nil, fmt.Errorf("cluster: need at least 3 nodes (2 data + parity), have %d", len(members))
	}
	v := &Volume{opts: opts, nodes: make([]*member, len(members)), ob: newVolObs(len(members))}
	devs := make([]core.BlockDevice, len(members))
	minCap := int64(-1)
	for i, mm := range members {
		m := &member{v: v, idx: i, addr: mm.Addr, dial: mm.Dial, node: mm.Node}
		if m.node == nil && m.dial != nil {
			if n, err := m.dial(); err != nil {
				m.lastErr = err
			} else {
				m.node = n
			}
		}
		switch {
		case m.node == nil && m.lastErr == nil:
			m.lastErr = fmt.Errorf("%w: no client and no dialer", ErrNodeDown)
		case m.node != nil && (minCap < 0 || m.node.Capacity() < minCap):
			minCap = m.node.Capacity()
		}
		m.dev = m
		v.nodes[i], devs[i] = m, m
	}
	if minCap < 0 {
		return nil, fmt.Errorf("cluster: no reachable nodes")
	}
	if v.size = minCap / opts.StripeUnit * opts.StripeUnit; v.size == 0 {
		return nil, fmt.Errorf("cluster: node capacity %d smaller than one stripe unit %d", minCap, opts.StripeUnit)
	}
	st, err := core.Open(devs, opts.NV, core.Options{
		Mode:            core.Afraid,
		StripeUnit:      opts.StripeUnit,
		ScrubIdle:       opts.DrainIdle,
		DirtyThreshold:  int(opts.MaxDirty),
		DisableScrubber: opts.DisableDrain,
		ScrubWorkers:    opts.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	v.st, v.geo = st, st.Geometry()
	reg := st.Obs()
	v.ob.reg.Adopt(map[string]any{
		"drain.stripe":      reg.Histogram("scrub_stripe"),
		"parity.compute":    reg.Histogram("parity_compute"),
		"write.full_stripe": reg.Counter("full_stripe_writes"),
	})
	if st.Stats().NVRAMRecovered {
		v.logf("cluster: marking memory unusable; recovering with full parity rebuild")
	}
	v.bgCtx, v.bgCancel = context.WithCancel(context.Background())
	if opts.ProbeInterval > 0 {
		v.wg.Add(1)
		go v.probeLoop()
	}
	return v, nil
}

// Close stops the background loops and closes the store and the node
// clients. The marking memory stays in NV (when configured); the next
// Open resumes the rebuild. Use Flush first for a clean shutdown.
func (v *Volume) Close() error {
	v.bgCancel()
	v.wg.Wait()
	return v.volumeErr(v.st.Close())
}

// Capacity returns the client-visible size in bytes.
func (v *Volume) Capacity() int64 { return v.geo.Capacity() }

// Geometry returns the node-striping parameters.
func (v *Volume) Geometry() layout.Geometry { return v.geo }

// DirtyStripes returns the number of cluster-unredundant stripes.
func (v *Volume) DirtyStripes() int64 { return v.st.DirtyStripes() }

// DirtyList enumerates the unredundant stripes — the cluster-wide
// exposure set a chaos harness samples at failure time.
func (v *Volume) DirtyList() []int64 { return v.st.DirtyList() }

// Stats returns a snapshot of the activity counters.
func (v *Volume) Stats() Stats {
	cs := v.st.Stats()
	v.meta.Lock()
	st := v.stats
	v.meta.Unlock()
	st.Reads, st.Writes, st.BytesRead, st.BytesWritten = cs.Reads, cs.Writes, cs.BytesRead, cs.BytesWritten
	st.DegradedReads, st.DegradedWrites = cs.DegradedReads, cs.DegradedWrites
	st.ParityDrains, st.InlineDrains = cs.ScrubbedStripes, cs.InlineScrubs
	st.HealedStripes, st.LostStripes = cs.RecoveredStripes, cs.DamagedStripes
	st.HedgedReads, st.HedgeWins = cs.HedgedReads, cs.HedgeWins
	st.DirtyStripes, st.DirtyHighWater, st.Recovered = cs.DirtyStripes, cs.DirtyHighWater, cs.NVRAMRecovered
	return st
}

// StatMap returns the volume's flat key/value snapshot under "cluster."
// keys: every Stats field and every counter of its registry.
func (v *Volume) StatMap() map[string]int64 {
	m := make(map[string]int64, 32)
	obs.Flatten(m, "cluster.", v.Obs(), v.Stats())
	return m
}

// NodeStates reports each member's reachability and heal backlog. A node
// the store still works around — redialed, but its heal has not begun —
// is StateDown, and one with stale units left is StateHealing.
func (v *Volume) NodeStates() []NodeInfo {
	out := make([]NodeInfo, len(v.nodes))
	for i := range out {
		n := &out[i]
		if n.StaleStripes = v.st.Engine().StaleCount(i); n.StaleStripes > 0 {
			n.State = StateHealing
		}
		if v.st.Absent(i) {
			n.State = StateDown
		}
	}
	v.meta.Lock()
	defer v.meta.Unlock()
	for i, m := range v.nodes {
		n := &out[i]
		n.Index, n.Addr, n.ConsecFails = i, m.addr, m.consecFails
		if m.node != nil {
			continue
		}
		n.State = StateDown
		if m.quarantined {
			n.State = StateQuarantined
		}
		if m.lastErr != nil {
			n.LastErr = m.lastErr.Error()
		}
	}
	return out
}

// Locate maps a client byte address to its home: the stripe, the node
// holding it, and the byte offset on that node — or an error, where
// layout.Locate would panic.
func (v *Volume) Locate(addr int64) (stripe int64, node int, nodeOff int64, err error) {
	if addr < 0 || addr >= v.geo.Capacity() {
		return 0, 0, 0, fmt.Errorf("cluster: address %d outside capacity %d", addr, v.geo.Capacity())
	}
	loc := v.geo.Locate(addr)
	return loc.Stripe, loc.Disk, loc.DiskOff, nil
}

// ReadAt implements io.ReaderAt over the volume's address space.
func (v *Volume) ReadAt(p []byte, off int64) (int, error) {
	return v.ReadContext(context.Background(), p, off)
}

// ReadContext reads len(p) bytes at off, reconstructing extents that
// live on a down node from the survivors. ctx reaches every node
// operation.
func (v *Volume) ReadContext(ctx context.Context, p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := v.st.ReadContext(ctx, p, off)
	if err != nil {
		return 0, v.volumeErr(err)
	}
	v.ob.readOp.Observe(time.Since(t0))
	return n, nil
}

// WriteAt implements io.WriterAt over the volume's address space.
func (v *Volume) WriteAt(p []byte, off int64) (int, error) {
	return v.WriteContext(context.Background(), p, off)
}

// WriteContext writes p at off: AFRAID-deferred while every node of a
// stripe is reachable (a whole stripe's parity written with it), and under
// the store's synchronous degraded protocol with a data node down.
func (v *Volume) WriteContext(ctx context.Context, p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := v.st.WriteContext(ctx, p, off)
	if err != nil {
		return 0, v.volumeErr(err)
	}
	v.ob.writeOp.Observe(time.Since(t0))
	return n, nil
}

// Flush drains every dirty stripe (Workers at a time), then flushes each
// reachable node so its own array settles too. Stripes that need a down
// node stay marked, and Flush returns ErrDegraded.
func (v *Volume) Flush(ctx context.Context) error {
	if err := v.st.FlushContext(ctx); err != nil {
		return v.drainErr(err)
	}
	return v.flushNodes(ctx)
}

// ParityPoint makes every stripe overlapping [off, off+length) redundant,
// as core.Store.ParityPoint does; stripes that need a down node yield
// ErrDegraded.
func (v *Volume) ParityPoint(ctx context.Context, off, length int64) error {
	return v.drainErr(v.st.ParityPointContext(ctx, off, length))
}

// VerifyParity audits every clean stripe with all its nodes present. It
// returns the stripes whose parity is wrong — redundancy the marking
// memory believes in that is not there — and how many it skipped.
func (v *Volume) VerifyParity(ctx context.Context) (bad []int64, skipped int64, err error) {
	bad, skipped, err = v.st.VerifyParity(ctx)
	return bad, skipped, v.volumeErr(err)
}

// volumeErr puts the store's errors in the volume's terms: ErrClosed, and
// ErrTooManyNodes for an operation that needed more nodes than are up.
func (v *Volume) volumeErr(err error) error {
	switch {
	case err == nil, errors.Is(err, core.ErrDataLoss):
		return err
	case errors.Is(err, core.ErrClosed):
		return ErrClosed
	case errors.Is(err, core.ErrTooManyFailures), errors.Is(err, core.ErrDeviceFailed):
		v.meta.Lock()
		v.stats.RetriesExhausted++
		v.meta.Unlock()
		return fmt.Errorf("%w: %w", ErrTooManyNodes, err)
	}
	return err
}

// drainErr is volumeErr for a drain, which stops at a down node with
// ErrDegraded.
func (v *Volume) drainErr(err error) error {
	if errors.Is(err, core.ErrTooManyFailures) {
		return fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	return v.volumeErr(err)
}

// flushNodes asks each reachable node to settle its own store.
func (v *Volume) flushNodes(ctx context.Context) error {
	var firstErr error
	for _, m := range v.nodes {
		n, gen, ok := m.conn()
		if !ok {
			continue // down node: nothing to flush there
		}
		cctx, cancel := v.nodeCtx(ctx)
		err := v.classify(ctx, m.idx, gen, n.Flush(cctx))
		cancel()
		if err != nil && firstErr == nil && !errors.Is(err, ErrNodeDown) {
			firstErr = err
		}
	}
	return firstErr
}

// Dial opens a volume over afraidd nodes at the given addresses, with
// redial hooks wired so HealNode and the prober can reconnect members
// that come back. Node i of the volume is addrs[i]; the order is the
// striping geometry and must be stable across restarts.
func Dial(addrs []string, opts Options) (*Volume, error) {
	opts.fill()
	members := make([]Member, len(addrs))
	for i, a := range addrs {
		members[i] = Member{Addr: a, Dial: func() (Node, error) { return server.DialTimeout(a, opts.DialTimeout) }}
	}
	return Open(members, opts)
}
