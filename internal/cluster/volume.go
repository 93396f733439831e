package cluster

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"afraid/internal/core"
	"afraid/internal/layout"
	"afraid/internal/nvram"
	"afraid/internal/obs"
	"afraid/internal/stripe"
)

// Options configures a Volume.
type Options struct {
	// StripeUnit is the bytes each node contributes to one stripe
	// (default 64 KiB — network round trips want fatter units than the
	// paper's 8 KB disk stripe depth).
	StripeUnit int64
	// MaxDirty bounds the unredundancy window: past this many dirty
	// stripes the drain runs even under load, and at twice it the write
	// path drains a few stripes inline (default 256).
	MaxDirty int64
	// DrainIdle is how long the volume must be quiescent before the
	// background drain rebuilds parity (default 100 ms).
	DrainIdle time.Duration
	// DisableDrain turns the background goroutine off; parity is then
	// rebuilt only by Flush/ParityPoint (and the inline valve).
	DisableDrain bool
	// NodeTimeout is the per-node operation deadline (default 10 s). It
	// is how a slow or wedged node gets declared down instead of
	// stalling the whole volume.
	NodeTimeout time.Duration
	// DialTimeout bounds connect+handshake when the volume dials a node
	// (Dial, redial on heal, the prober; default 5 s).
	DialTimeout time.Duration
	// ProbeInterval, when positive, runs a background health prober:
	// pinging up nodes to catch silent death, redialing down nodes, and
	// auto-healing them when they answer again. 0 disables (callers
	// drive FailNode/HealNode themselves — tests and afraidctl do).
	ProbeInterval time.Duration
	// Workers bounds the stripes drained, healed or verified concurrently
	// by Flush, ParityPoint, HealNode and VerifyParity (default
	// min(GOMAXPROCS, 4)).
	Workers int
	// HedgeDelay controls hedged reads, the volume's tail-latency
	// defence: a unit read that has not answered after the delay is
	// re-issued to the reconstruction path (survivors + parity) and the
	// first success wins. 0 (the default) derives the delay from the
	// live p99 of node reads; a positive value fixes it; a negative
	// value disables hedging.
	HedgeDelay time.Duration
	// FlapThreshold is the flap damper: a node demoted this many times
	// inside FlapWindow is quarantined — the prober stops redialing and
	// auto-healing it until ClearQuarantine, HealNode, or
	// QuarantineDecay. Default 3; negative disables damping.
	FlapThreshold int
	// FlapWindow is the sliding window the damper counts demotions in
	// (default 1 minute).
	FlapWindow time.Duration
	// QuarantineDecay auto-clears a quarantine after this long, letting
	// the prober try the node again (default 5 minutes; negative means
	// only an administrator clears it).
	QuarantineDecay time.Duration
	// NV, when set, persists the volume's marking memory (dirty map and
	// per-node stale maps), so a restarted volume host resumes the
	// parity rebuild where it left off — the cluster analogue of the
	// paper's NVRAM. An unusable image triggers the paper's recovery:
	// every stripe is marked for parity rebuild.
	NV core.NVRAM
	// Logf, when set, receives node up/down and heal diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.StripeUnit == 0 {
		o.StripeUnit = 64 << 10
	}
	if o.MaxDirty == 0 {
		o.MaxDirty = 256
	}
	if o.DrainIdle == 0 {
		o.DrainIdle = 100 * time.Millisecond
	}
	if o.NodeTimeout == 0 {
		o.NodeTimeout = 10 * time.Second
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 4 {
			o.Workers = 4
		}
	}
	if o.FlapThreshold == 0 {
		o.FlapThreshold = 3
	}
	if o.FlapWindow == 0 {
		o.FlapWindow = time.Minute
	}
	if o.QuarantineDecay == 0 {
		o.QuarantineDecay = 5 * time.Minute
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
	Retries                 uint64 // span attempts re-run after a node demotion re-routed them
	RetriesExhausted        uint64 // spans that used their whole retry budget and still failed
	Quarantines             uint64 // nodes fenced off by the flap damper
	AutoHeals               uint64 // background heals started by the prober
	DirtyStripes            int64
	DirtyHighWater          int64 // widest the cluster unredundancy window ever got
	Recovered               bool  // marking memory was unusable; full parity rebuild scheduled
}

// member is one node slot and its volume-side state.
type member struct {
	idx  int
	addr string
	dial func() (Node, error)

	// Guarded by Volume.meta. The units it missed are the engine's (its
	// stale units, member idx).
	node    Node
	state   NodeState // StateUp or StateDown; Healing/Quarantined are derived
	lastErr error
	gen     uint64 // bumped per (re)dial so stale failures can't kill a fresh conn

	// Flap damping and prober state, guarded by Volume.meta.
	failTimes    []time.Time   // recent demotions, pruned to FlapWindow
	consecFails  int           // demotions since the last clean heal
	quarantined  bool          // fenced off from prober redial/auto-heal
	quarantineAt time.Time     // when the fence went up (for QuarantineDecay)
	probeBackoff time.Duration // current redial backoff (0 = ProbeInterval)
	nextProbe    time.Time     // earliest next redial attempt
	probing      bool          // a probe of this node is in flight
	healing      bool          // a background heal of this node is in flight
}

// Volume is a distributed AFRAID array: one logical block space striped
// over the member nodes with deferred, cluster-wide parity.
type Volume struct {
	geo  layout.Geometry
	opts Options

	// eng is the deferred-redundancy engine (internal/nvram), the one
	// internal/core runs its stripes on: the dirty map (one unit per
	// stripe) and each node's stale map in one group-committed image, the
	// idle and MaxDirty triggers, the inline valve and the drains, all
	// calling drainStripe.
	eng *nvram.Engine

	// arr holds the stripe images and the fan-out that overlaps their
	// units: every stripe operation that moves more than one unit loads,
	// solves, encodes and stores through one (image, degraded.go).
	arr *stripe.Array

	meta   sync.Mutex // guards nodes' mutable state and everything below
	nodes  []*member
	stats  Stats // the drain and exposure fields are filled from eng by Stats()
	closed bool

	locks [64]sync.Mutex // stripe lock pool (stripe % 64)

	ob *volObs

	stop chan struct{}
	wg   sync.WaitGroup

	// bgCtx outlives any one probe tick: background heals run under it
	// so they are killed by Close, not by a probe interval (the old bug
	// cancelled heals after NodeTimeout every tick).
	bgCtx    context.Context
	bgCancel context.CancelFunc

	// Cached auto hedge delay (ns) and when it was computed (unix ns),
	// so the hot read path does not merge histograms per extent.
	hedgeNS   atomic.Int64
	hedgeEval atomic.Int64
}

// Open assembles a volume over the members. Members whose Node is nil
// are dialed; a member that cannot be reached opens in StateDown with a
// conservatively full stale map (everything written before this volume
// instance is suspect until healed), and the volume serves degraded.
func Open(members []Member, opts Options) (*Volume, error) {
	opts.fill()
	if len(members) < 3 {
		return nil, fmt.Errorf("cluster: need at least 3 nodes (2 data + parity), have %d", len(members))
	}
	nodes := make([]*member, len(members))
	minCap := int64(-1)
	for i, mm := range members {
		m := &member{idx: i, addr: mm.Addr, dial: mm.Dial, node: mm.Node, state: StateUp}
		if m.node == nil && m.dial != nil {
			n, err := m.dial()
			if err != nil {
				m.state = StateDown
				m.lastErr = err
			} else {
				m.node = n
			}
		}
		if m.node == nil {
			m.state = StateDown
			if m.lastErr == nil {
				m.lastErr = fmt.Errorf("%w: no client and no dialer", ErrNodeDown)
			}
		} else if c := m.node.Capacity(); minCap < 0 || c < minCap {
			minCap = c
		}
		nodes[i] = m
	}
	if minCap < 0 {
		return nil, fmt.Errorf("cluster: no reachable nodes")
	}
	size := minCap / opts.StripeUnit * opts.StripeUnit
	if size == 0 {
		return nil, fmt.Errorf("cluster: node capacity %d smaller than one stripe unit %d", minCap, opts.StripeUnit)
	}
	geo := layout.Geometry{
		Disks:      len(members),
		StripeUnit: opts.StripeUnit,
		DiskSize:   size,
		Level:      layout.RAID5,
	}
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	v := &Volume{
		geo:   geo,
		opts:  opts,
		nodes: nodes,
		ob:    newVolObs(len(members)),
		stop:  make(chan struct{}),
	}
	v.arr = stripe.New(geo, v.ob.parity.Observe)
	v.bgCtx, v.bgCancel = context.WithCancel(context.Background())
	// The marking memory. An unusable image triggers the paper's
	// NVRAM-loss recovery, cluster-wide: every stripe is marked for parity
	// rebuild, no node keeps a stale map, and the event is flagged in
	// Stats.Recovered. The data on reachable nodes is trusted — what is
	// lost is the knowledge of which parity units lag it.
	var err error
	v.eng, err = nvram.NewEngine(nvram.Config{
		Units:         geo.Stripes(),
		Members:       len(members),
		NV:            opts.NV,
		Idle:          opts.DrainIdle,
		Threshold:     opts.MaxDirty,
		Workers:       opts.Workers,
		MakeRedundant: v.drainStripe,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if v.eng.Stats().Recovered {
		v.logf("cluster: marking memory unusable; recovering with full parity rebuild")
	}
	// A member down at open with no persisted record of what it missed
	// is fully suspect: everything on it must be healed before trusted.
	// The verdict is durable before the volume serves — a later process
	// must not find the node back up with a clean stale map and trust
	// whatever (possibly blank) disk answers.
	for i, m := range nodes {
		if m.state == StateDown && v.eng.StaleCount(i) == 0 {
			if err := v.eng.MarkStale(i, 0, geo.Stripes()); err != nil {
				return nil, err
			}
		}
	}
	if !opts.DisableDrain {
		v.eng.Start()
	}
	if opts.ProbeInterval > 0 {
		v.wg.Add(1)
		go v.probeLoop()
	}
	return v, nil
}

// Close stops the background loops and closes the node clients. Dirty
// and stale maps stay in NV (when configured); the next Open resumes
// the rebuild. Use Flush first for a clean shutdown.
func (v *Volume) Close() error {
	v.meta.Lock()
	if v.closed {
		v.meta.Unlock()
		return ErrClosed
	}
	v.closed = true
	v.meta.Unlock()
	v.eng.Stop()
	close(v.stop)
	v.bgCancel()
	v.wg.Wait()
	// Full-stripe writes clear their marks in memory only; a clean
	// shutdown should not cost the next Open their rebuilds.
	first := v.eng.Sync()
	v.meta.Lock()
	defer v.meta.Unlock()
	for _, m := range v.nodes {
		if m.node == nil {
			continue
		}
		if err := m.node.Close(); err != nil && first == nil {
			first = err
		}
		m.node = nil
	}
	return first
}

// Capacity returns the client-visible size in bytes.
func (v *Volume) Capacity() int64 { return v.geo.Capacity() }

// Geometry returns the node-striping parameters.
func (v *Volume) Geometry() layout.Geometry { return v.geo }

// DirtyStripes returns the number of cluster-unredundant stripes.
func (v *Volume) DirtyStripes() int64 { return v.eng.Count() }

// DirtyList enumerates the unredundant stripes — the cluster-wide
// exposure set a chaos harness samples at failure time.
func (v *Volume) DirtyList() []int64 { return v.eng.Marked() }

// Stats returns a snapshot of the activity counters.
func (v *Volume) Stats() Stats {
	v.meta.Lock()
	st := v.stats
	v.meta.Unlock()
	es := v.eng.Stats()
	st.DirtyStripes, st.DirtyHighWater, st.Recovered = es.Marked, es.HighWater, es.Recovered
	st.ParityDrains, st.InlineDrains = es.Drained, es.Inline
	return st
}

// StatMap returns the volume's flat key/value snapshot under "cluster."
// keys: every Stats field and every counter of its registry — the same
// surface core.Store and tier.Store give, so a harness reads coverage
// counters as keys on every stack.
func (v *Volume) StatMap() map[string]int64 {
	m := make(map[string]int64, 32)
	obs.Flatten(m, "cluster.", v.Obs(), v.Stats())
	return m
}

// NodeStates reports each member's reachability and heal backlog.
func (v *Volume) NodeStates() []NodeInfo {
	v.meta.Lock()
	defer v.meta.Unlock()
	out := make([]NodeInfo, len(v.nodes))
	for i, m := range v.nodes {
		info := NodeInfo{
			Index: i, Addr: m.addr, State: m.state,
			StaleStripes: v.eng.StaleCount(i), ConsecFails: m.consecFails,
		}
		if m.state == StateUp && info.StaleStripes > 0 {
			info.State = StateHealing
		}
		if m.state == StateDown {
			if m.quarantined {
				info.State = StateQuarantined
			}
			if m.lastErr != nil {
				info.LastErr = m.lastErr.Error()
			}
		}
		out[i] = info
	}
	return out
}

// stripeLock returns the lock covering a stripe.
func (v *Volume) stripeLock(stripe int64) *sync.Mutex {
	return &v.locks[stripe%int64(len(v.locks))]
}

// checkRange validates a client range without computing off+length,
// which overflows for off near MaxInt64 (same hardening as
// core.checkRange — layout.Split panics on wrapped ranges).
func (v *Volume) checkRange(off, length int64) error {
	v.meta.Lock()
	closed := v.closed
	v.meta.Unlock()
	if closed {
		return ErrClosed
	}
	if length < 0 || off < 0 || length > v.geo.Capacity() || off > v.geo.Capacity()-length {
		return fmt.Errorf("cluster: range off=%d length=%d outside capacity %d", off, length, v.geo.Capacity())
	}
	return nil
}

// Locate maps a client byte address to its home: the stripe, the node
// holding it, and the byte offset on that node. Unlike layout.Locate it
// rejects out-of-range addresses with an error instead of panicking, so
// tools can probe the mapping safely.
func (v *Volume) Locate(addr int64) (stripe int64, node int, nodeOff int64, err error) {
	if addr < 0 || addr >= v.geo.Capacity() {
		return 0, 0, 0, fmt.Errorf("cluster: address %d outside capacity %d", addr, v.geo.Capacity())
	}
	loc := v.geo.Locate(addr)
	return loc.Stripe, loc.Disk, loc.DiskOff, nil
}

// stripeHealth is a per-stripe availability snapshot.
type stripeHealth struct {
	badIdx     []int // data indices whose node can't serve this stripe
	parityRead bool  // parity unit readable (node up, unit not stale)
	parityWrit bool  // parity unit writable (node up)
	dirty      bool
	stale      nvram.MemberSet // nodes holding a stale unit of the stripe
}

// upLocked reports whether node n is reachable. Callers hold meta.
func (v *Volume) upLocked(n int) bool {
	m := v.nodes[n]
	return m.state == StateUp && m.node != nil
}

// up is upLocked for callers that do not hold meta.
func (v *Volume) up(n int) bool {
	v.meta.Lock()
	defer v.meta.Unlock()
	return v.upLocked(n)
}

// health snapshots a stripe's availability: its marks in one engine call,
// then which nodes are reachable. Callers hold the stripe lock, so the
// marks cannot move underneath them.
func (v *Volume) health(st int64) stripeHealth {
	var h stripeHealth
	h.dirty, _, h.stale = v.eng.State(st)
	v.meta.Lock()
	defer v.meta.Unlock()
	serves := func(n int) bool { return v.upLocked(n) && !h.stale.Has(n) }
	for idx := 0; idx < v.geo.DataDisks(); idx++ {
		if !serves(v.geo.DataDisk(st, idx)) {
			h.badIdx = append(h.badIdx, idx)
		}
	}
	pn := v.geo.ParityDisk(st)
	h.parityRead = serves(pn)
	h.parityWrit = v.upLocked(pn)
	return h
}

// ReadAt implements io.ReaderAt over the volume's address space.
func (v *Volume) ReadAt(p []byte, off int64) (int, error) {
	return v.ReadContext(context.Background(), p, off)
}

// ReadContext reads len(p) bytes at off, reconstructing extents that
// live on a down node from the survivors. Cancellation is checked
// between stripe spans.
func (v *Volume) ReadContext(ctx context.Context, p []byte, off int64) (int, error) {
	return v.request(ctx, p, off, false)
}

// spanPool recycles the span slices request splits I/Os into, as core's
// does: SplitAppend reuses the slice and each entry's Extents array.
var spanPool = sync.Pool{New: func() any { return new([]layout.StripeSpan) }}

// request serves one client read or write: split it into stripe spans and
// run readSpan or writeSpan on each under its stripe lock, re-running a
// span that a node demotion re-routed (retrySpan).
func (v *Volume) request(ctx context.Context, p []byte, off int64, write bool) (int, error) {
	if err := v.checkRange(off, int64(len(p))); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	v.eng.Touch()
	t0 := time.Now()
	spp := spanPool.Get().(*[]layout.StripeSpan)
	spans := v.geo.SplitAppend((*spp)[:0], off, int64(len(p)))
	defer func() { *spp = spans; spanPool.Put(spp) }()
	for _, sp := range spans {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		lk := v.stripeLock(sp.Stripe)
		lk.Lock()
		err := v.retrySpan(ctx, func() error {
			if write {
				return v.writeSpan(ctx, p, off, sp)
			}
			return v.readSpan(ctx, p, off, sp)
		})
		lk.Unlock()
		if err != nil {
			return 0, err
		}
	}
	took := time.Since(t0)
	v.meta.Lock()
	if write {
		v.ob.writeOp.Observe(took)
		v.stats.Writes++
		v.stats.BytesWritten += int64(len(p))
	} else {
		v.ob.readOp.Observe(took)
		v.stats.Reads++
		v.stats.BytesRead += int64(len(p))
	}
	v.meta.Unlock()
	if write {
		v.eng.Kick()
	}
	return len(p), nil
}

// readSpan serves one stripe's extents. Caller holds the stripe lock.
func (v *Volume) readSpan(ctx context.Context, p []byte, base int64, sp layout.StripeSpan) error {
	h := v.health(sp.Stripe)
	for _, e := range sp.Extents {
		if slices.Contains(h.badIdx, e.DataIdx) {
			return v.readSpanAround(ctx, p, base, sp, h, e.Disk)
		}
	}
	// Hedging needs a fully redundant stripe: every data node up with
	// fresh units and the parity unit readable, so the reconstruction
	// path can answer for any straggler.
	hd := v.hedgeDelay()
	if h.dirty || len(h.badIdx) > 0 || !h.parityRead {
		hd = 0
	}
	for _, e := range sp.Extents {
		dst := p[e.ArrOff-base : e.ArrOff-base+e.Len]
		var err error
		if hd > 0 {
			err = v.hedgedReadExtent(ctx, dst, sp.Stripe, e, hd)
		} else {
			err = v.nodeRead(ctx, e.Disk, dst, e.DiskOff)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readSpanAround serves a span one of whose extents lives on node, which
// can't serve it: that extent's byte range is solved from the same range
// of the survivors and parity, each moved once, and the span's other
// extents ride the same image. Caller holds the stripe lock.
func (v *Volume) readSpanAround(ctx context.Context, p []byte, base int64, sp layout.StripeSpan, h stripeHealth, node int) error {
	if h.dirty {
		return fmt.Errorf("%w: stripe %d", core.ErrDataLoss, sp.Stripe)
	}
	if len(h.badIdx) > 1 || !h.parityRead {
		return fmt.Errorf("%w: stripe %d needs %d absent units", ErrTooManyNodes, sp.Stripe, len(h.badIdx))
	}
	im := v.image(ctx, sp.Stripe)
	defer im.Release()
	if _, err := im.ReadSpan(p, base, sp, absent(node), 1); err != nil {
		return err
	}
	v.meta.Lock()
	v.stats.DegradedReads++
	v.meta.Unlock()
	return nil
}

// WriteAt implements io.WriterAt over the volume's address space.
func (v *Volume) WriteAt(p []byte, off int64) (int, error) {
	return v.WriteContext(context.Background(), p, off)
}

// WriteContext writes p at off. With every data node of a stripe
// reachable, the write is AFRAID-deferred: data lands immediately, the
// stripe is marked unredundant, parity follows in the background —
// unless the write carries the stripe's whole data image, whose parity
// is computed from the bytes in hand and written with them. With
// a data node down, the stripe switches to the synchronous degraded
// protocol — deferring there would turn the *already spent* redundancy
// into certain loss on the next failure, which would break the paper's
// contract that loss is confined to stripes unredundant at failure
// time.
func (v *Volume) WriteContext(ctx context.Context, p []byte, off int64) (int, error) {
	return v.request(ctx, p, off, true)
}

// writeSpan applies one stripe's worth of a write under the stripe lock.
func (v *Volume) writeSpan(ctx context.Context, p []byte, base int64, sp layout.StripeSpan) error {
	st := sp.Stripe
	h := v.health(st)
	if len(h.badIdx) == 0 && h.parityWrit && sp.FullStripe(v.geo) {
		return v.writeFullStripe(ctx, p, base, sp)
	}
	if len(h.badIdx) == 0 {
		// Every data node reachable: the AFRAID deferred path. Mark first
		// (durably), then write — a crash between the two costs a spurious
		// parity rebuild, never an unrecorded exposure, and a node lost
		// mid-write finds the stripe already in the exposure set, which is
		// what makes the loss contract auditable.
		if err := v.eng.Mark(st); err != nil {
			return err
		}
		return v.writeExtents(ctx, sp, p, base)
	}
	if len(h.badIdx) > 1 {
		return fmt.Errorf("%w: stripe %d", ErrTooManyNodes, st)
	}
	bIdx := h.badIdx[0]
	touchesB, coversB := false, false
	for _, e := range sp.Extents {
		if e.DataIdx == bIdx {
			touchesB = true
			coversB = e.UnitOff == 0 && e.Len == v.geo.StripeUnit
		}
	}
	if h.dirty && !coversB {
		if touchesB {
			// The absent unit holds bytes this write would merge with,
			// and the stripe was unredundant when its node was lost.
			return fmt.Errorf("%w: stripe %d", core.ErrDataLoss, st)
		}
		// Stripe already in the exposure set; updating its live units
		// deepens nothing. Keep deferring.
		return v.writeExtents(ctx, sp, p, base)
	}
	if !h.parityWrit {
		// Synchronous parity needed (data node absent) but the parity
		// node is down too: two failures exceed single parity.
		return fmt.Errorf("%w: stripe %d needs parity node", ErrTooManyNodes, st)
	}
	return v.writeSpanDegraded(ctx, p, base, sp, h, bIdx, coversB)
}

// writeFullStripe writes a span that carries every data unit of a stripe
// whole, all of whose nodes are reachable: the parity unit is computed
// from the caller's buffer and written beside the data units
// (Image.WriteFull), so the stripe ends redundant — the cluster's
// counterpart of core's full-stripe write, with the same protocol. The
// mark is durable before the first byte moves, so a volume host that dies
// mid-write finds the stripe in its exposure set; it is cleared, in
// memory, once every unit has landed (the image catches up at its next
// store). A node that fails under the write leaves the stripe marked and
// its own unit stale, and the span's retry takes the degraded protocol.
// Caller holds the stripe lock.
func (v *Volume) writeFullStripe(ctx context.Context, p []byte, base int64, sp layout.StripeSpan) error {
	st := sp.Stripe
	if err := v.eng.Mark(st); err != nil {
		return err
	}
	im := v.image(ctx, st)
	defer im.Release()
	if err := im.WriteFull(p, base, sp); err != nil {
		return err
	}
	v.eng.ClearStale(v.geo.ParityDisk(st), st)
	v.eng.Clear(st)
	v.ob.fullStripe.Inc()
	return nil
}

// writeExtents writes the span's extents to their home nodes, together
// when there are several (distinct nodes by layout).
func (v *Volume) writeExtents(ctx context.Context, sp layout.StripeSpan, p []byte, base int64) error {
	if e := sp.Extents[0]; len(sp.Extents) == 1 {
		return v.nodeWrite(ctx, e.Disk, p[e.ArrOff-base:e.ArrOff-base+e.Len], e.DiskOff)
	}
	im := v.image(ctx, sp.Stripe)
	defer im.Release()
	return im.WriteSpan(p, base, sp)
}
