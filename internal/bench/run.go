package bench

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"afraid/internal/core"
	"afraid/internal/layout"
	"afraid/internal/parity"
	"afraid/internal/sim"
	"afraid/internal/tier"
	"afraid/internal/trace"
)

// Config selects one run.
type Config struct {
	Workload string
	Seed     uint64
	Seconds  float64 // measured window
	Trace    bool    // traced run: per-layer metrics, one client, shims off then on
	Short    bool    // smoke run: one set-up, short warm-up
	SpanFile string  // where a traced run writes its spans; "" writes none
	// Spinner is the command that runs Spin; the processor's number is
	// appended. Set, every processor is kept from halting for the whole
	// run (awake_linux.go).
	Spinner []string
}

// workload is one way of loading one stack.
type workload struct {
	name    string
	why     string
	clients int
	// capacity is how many bytes of the store the generators address;
	// it follows from the stack's constants, so inputs are made before
	// anything is built and the seed reaches nothing but them.
	capacity int64
	prefill  bool // set-up writes every block of the store once and makes the array redundant
	build    func(clients int, rec *recorder, pool *devPool) (*stack, error)
	inputs   func(w *workload, seed uint64, clients int, window time.Duration) (*inputs, error)
	drive    func(st *stack, in *inputs, p pacing) driven
}

// inputs is everything a run derives from its seed: each client's
// operation stream and the shadow that says what its reads must return.
type inputs struct {
	shadows []*shadow
	gens    []*opGen       // closed loops
	traces  []*trace.Trace // the open loop
	opSize  int64
	sha     string // hash of the operation streams
}

// The core stores of the benchmark, all on the paper's 8 KiB stripe unit.
var (
	attOpts       = core.Options{Mode: core.Afraid, StripeUnit: 8 << 10, ScrubIdle: 100 * time.Millisecond}
	rw4kOpts      = core.Options{Mode: core.Afraid, StripeUnit: 8 << 10, Checksums: true}
	lifecycleOpts = core.Options{Mode: core.Afraid, StripeUnit: 8 << 10, Checksums: true, DisableScrubber: true}
	tierBackOpts  = core.Options{Mode: core.Afraid, StripeUnit: 8 << 10}
)

// coreCapacity is the client-visible size of a core store with these
// options over the benchmark's members.
func coreCapacity(opts core.Options) int64 {
	return layout.Geometry{Disks: members, StripeUnit: opts.StripeUnit, Level: layout.RAID5,
		DiskSize: layout.UsableDiskSize(memberSize, opts.StripeUnit, opts.Checksums)}.Capacity()
}

// workloads is the benchmark: five stacks, five shapes of load.
// README.md gives the reason for each and for every departure from the
// configuration first planned.
var workloads = []workload{
	{
		name: "att_net", clients: 2, capacity: coreCapacity(attOpts), prefill: true,
		why: "open loop: the paper's bursty database trace over TCP onto 2 ms disks; marking, group commit and the idle scrubber do the work, and device I/Os on the critical path set latency",
		build: func(clients int, rec *recorder, pool *devPool) (*stack, error) {
			return buildNet(attOpts, true, clients, rec, pool)
		},
		inputs: attInputs,
		drive:  func(st *stack, in *inputs, p pacing) driven { return openLoop(st, in.traces, in.shadows, p) },
	},
	{
		name: "rw4k_net", clients: 2, capacity: coreCapacity(rw4kOpts), prefill: true,
		why: "closed loop: CPU-bound 4 KiB reads and writes over TCP, where framing, queueing and hand-off in server are most of each op and core's deferred-parity write path is a few percent",
		build: func(clients int, rec *recorder, pool *devPool) (*stack, error) {
			return buildNet(rw4kOpts, false, clients, rec, pool)
		},
		inputs: loopInputs(4<<10, 0.5, uniform),
		drive:  driveLoop,
	},
	{
		name: "lifecycle_core", clients: 1, capacity: coreCapacity(lifecycleOpts),
		why: "in-process whole-array passes (write, commit, read, degraded read, rebuild, check): the only load where parity kernels, CRC32C, stripe buffers and scrub workers are the whole cost",
		build: func(_ int, rec *recorder, pool *devPool) (*stack, error) {
			return buildCore(lifecycleOpts, rec, pool)
		},
		inputs: func(w *workload, seed uint64, _ int, _ time.Duration) (*inputs, error) {
			// The passes are fixed; the seed only picks the contents.
			sh := newShadow(contentKey(seed), 0, w.capacity, 32<<10)
			sha := newScheduleHash()
			sha.op(time.Duration(sh.key), true, 0, w.capacity)
			return &inputs{shadows: []*shadow{sh}, sha: sha.sum()}, nil
		},
		drive: func(st *stack, in *inputs, p pacing) driven { return lifecycle(st, in.shadows[0], p) },
	},
	{
		name: "cluster4_rw64k", clients: 2, capacity: (clusterNodes - 1) * memberSize, prefill: true,
		why:    "closed loop: 64 KiB unit-aligned ops on a 4-node volume; cluster fan-out and marking memory dominate, drain runs in the closing flush, and server carries few large payloads, not many small frames",
		build:  buildCluster,
		inputs: loopInputs(clusterUnit, 0.5, uniform),
		drive:  driveLoop,
	},
	{
		name: "hot4k_tier", clients: 2, capacity: 2 * tierSlots * tier.DefaultExtentSize, prefill: true,
		why:    "closed loop: Zipf 4 KiB ops over twice the extents the mirrored front holds, on 2 ms back disks; hits, promotions, evictions and demotions all run and tier does most of the work",
		build:  buildTier,
		inputs: loopInputs(4<<10, 0.3, zipfExtents),
		drive:  driveLoop,
	},
}

func driveLoop(st *stack, in *inputs, p pacing) driven {
	return closedLoop(st, in.gens, in.shadows, in.opSize, p)
}

func lookup(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// Names returns the workload names in running order.
func Names() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// contentKey turns the seed into the key block contents derive from.
func contentKey(seed uint64) uint64 { return mix64(seed ^ 0xAF2A1D) }

// picker makes the address stream of one closed-loop client over
// blocks op-sized blocks starting at base.
type picker func(rng *sim.RNG, base, opSize, blocks int64) func() int64

// uniform picks every block of the region equally often.
func uniform(rng *sim.RNG, base, opSize, blocks int64) func() int64 {
	return func() int64 { return base + rng.Int63n(blocks)*opSize }
}

// zipfExtents picks an extent by Zipf(1.0) rank, then a block in it.
func zipfExtents(rng *sim.RNG, base, opSize, blocks int64) func() int64 {
	per := tier.DefaultExtentSize / opSize
	z := sim.NewZipf(rng, int(blocks/per), 1.0)
	return func() int64 {
		return base + int64(z.Next())*tier.DefaultExtentSize + rng.Int63n(per)*opSize
	}
}

// loopInputs makes the inputs of a closed loop: the workload's bytes
// are split evenly among the clients, and each client gets a shadow of
// its region and its own generator seeded with seed+client.
func loopInputs(opSize int64, readFrac float64, pick picker) func(*workload, uint64, int, time.Duration) (*inputs, error) {
	return func(w *workload, seed uint64, clients int, _ time.Duration) (*inputs, error) {
		in := &inputs{opSize: opSize}
		sha := newScheduleHash()
		region := w.capacity / int64(clients) / opSize * opSize
		for c := 0; c < clients; c++ {
			base := int64(c) * region
			in.shadows = append(in.shadows, newShadow(contentKey(seed), base, region, opSize))
			gen := func() *opGen {
				rng := sim.NewRNG(seed + uint64(c))
				return &opGen{rng: rng, readFrac: readFrac, pick: pick(rng, base, opSize, region/opSize)}
			}
			in.gens = append(in.gens, gen())
			for g, i := gen(), 0; i < hashedOps; i++ {
				write, off := g.next()
				sha.op(0, write, off, opSize)
			}
		}
		in.sha = sha.sum()
		return in, nil
	}
}

// attInputs makes the open loop's inputs: one att trace per client,
// made by internal/trace from seed+client over the client's own half of
// the address space.
func attInputs(w *workload, seed uint64, clients int, window time.Duration) (*inputs, error) {
	params, err := trace.Lookup("att", window)
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	sha := newScheduleHash()
	half := w.capacity / 2
	for c := 0; c < clients; c++ {
		base := int64(c) * half
		tr, err := trace.Generate(params, half, sim.NewRNG(seed+uint64(c)))
		if err != nil {
			return nil, err
		}
		for i := range tr.Records {
			r := &tr.Records[i]
			r.Offset += base
			sha.op(r.Time, r.Write, r.Offset, r.Length)
		}
		in.traces = append(in.traces, tr)
		in.shadows = append(in.shadows, newShadow(contentKey(seed), base, half, params.Align))
	}
	in.sha = sha.sum()
	return in, nil
}

// pass is one measured drive of one freshly built stack.
type pass struct {
	setup         time.Duration
	d             driven
	exp           exposure
	before, after counters
	flush         time.Duration // the closing Flush
	dirtyAtFlush  int64
	spans         []span
	attr          attribution
	sha           string
	st            *stack // closed; kept for its geometry and layer names
}

// setUp makes the run's inputs, then builds the stack and brings it to
// its starting state; only the second part is timed.
func (w *workload) setUp(seed uint64, clients int, shims bool, p pacing) (*stack, *inputs, time.Duration, error) {
	in, err := w.inputs(w, seed, clients, p.window)
	if err != nil {
		return nil, nil, 0, err
	}
	var rec *recorder
	if shims {
		rec = newRecorder()
	}
	t0 := time.Now()
	st, err := w.build(clients, rec, p.pool)
	if err == nil && st.geo.Capacity() < w.capacity {
		err = fmt.Errorf("bench: %s stack holds %d bytes, inputs address %d", w.name, st.geo.Capacity(), w.capacity)
	}
	if err == nil && w.prefill {
		// Every block of the store is written once, those the clients
		// will address through their shadows and the rest (hot4k_tier
		// works in a corner of its store) through a throwaway one.
		last := in.shadows[len(in.shadows)-1]
		rest := newShadow(last.key, last.end(), st.geo.Capacity()-last.end(), last.block)
		for _, sh := range append(in.shadows[:len(in.shadows):len(in.shadows)], rest) {
			if err = sh.prefill(st.direct, 1<<20); err != nil {
				break
			}
		}
		if err == nil {
			err = st.flush()
		}
	}
	if err != nil {
		st.close()
		return nil, nil, 0, err
	}
	return st, in, time.Since(t0), nil
}

// release collects a closed stack before the next one is built, so one
// set-up does not pay for collecting the last. Its member devices are
// not garbage: they wait in the run's devPool.
func release() { runtime.GC() }

// runPass sets a stack up, drives it, and closes with Flush and a
// parity check: whatever the run did, the array must end redundant and
// consistent, or the run failed.
func (w *workload) runPass(seed uint64, clients int, shims bool, p pacing) (*pass, error) {
	st, in, setup, err := w.setUp(seed, clients, shims, p)
	if err != nil {
		return nil, err
	}
	defer release()
	defer st.close()
	ps := &pass{setup: setup, st: st, sha: in.sha}

	st.model(true)
	if st.rec != nil {
		st.rec.on.Store(true)
	}
	ps.before = st.counters()
	stop := make(chan struct{})
	exp := watchExposure(st.dirty, stop)
	ps.d = w.drive(st, in, p)
	close(stop)
	ps.exp = <-exp
	ps.after = st.counters()
	ps.dirtyAtFlush = st.dirty()
	if st.rec != nil {
		st.rec.on.Store(false)
		ps.spans = st.rec.all()
		ps.attr = attribute(ps.spans)
	}

	t0 := time.Now()
	err = st.flush()
	ps.flush = time.Since(t0)
	st.model(false)
	if err != nil {
		return nil, fmt.Errorf("closing flush: %w", err)
	}
	bad, err := st.check()
	if err != nil {
		return nil, fmt.Errorf("closing parity check: %w", err)
	}
	ps.d.attempted++
	if bad > 0 || st.dirty() != 0 {
		ps.d.failed++
	}
	return ps, nil
}

// Run performs one run of one workload and reports it.
func Run(cfg Config) (*Report, error) {
	w, err := lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("bench: seconds must be positive")
	}
	rep := &Report{
		Workload: w.name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Meta:    Meta{Commit: commit(), Go: runtime.Version(), Kernel: parity.Kernel(), NProc: runtime.GOMAXPROCS(0)},
		Samples: map[string]int64{}, Info: map[string]Value{},
	}
	p := pacing{warm: time.Second, window: time.Duration(cfg.Seconds * float64(time.Second)), pool: &devPool{}}
	if cfg.Short {
		p.warm = 200 * time.Millisecond
	}
	if len(cfg.Spinner) > 0 {
		stop, err := keepAwake(cfg.Spinner)
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	if cfg.Trace {
		err = w.traced(cfg, p, rep)
	} else {
		err = w.untraced(cfg, p, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// untraced measures the end-to-end metrics: every client, no shims.
// Set-up is timed six times and the fastest reported: whatever the host
// does to a set-up makes it slower, and the first one also maps the
// device memory the later ones find in the pool. The last stack built
// is the one measured.
func (w *workload) untraced(cfg Config, p pacing, rep *Report) error {
	setups := 6
	if cfg.Short {
		setups = 1
	}
	fastest := math.Inf(1)
	for i := 1; i < setups; i++ {
		st, _, d, err := w.setUp(cfg.Seed, w.clients, false, p)
		if err != nil {
			return err
		}
		st.close()
		release()
		fastest = min(fastest, d.Seconds())
	}
	ps, err := w.runPass(cfg.Seed, w.clients, false, p)
	if err != nil {
		return err
	}
	m := newMetricSet(EndToEnd)
	m.set("setup_s", min(fastest, ps.setup.Seconds()))
	endToEnd(ps, func(name string, v float64, n int) {
		if isEndToEnd(name) {
			m.set(name, v)
		} else {
			rep.Info[name] = Value{v, unitOf(name)}
		}
		rep.Samples[name] = int64(n)
	})
	rep.Result = Result{Attempted: ps.d.attempted, Failed: ps.d.failed, Metrics: m.complete()}
	rep.ScheduleSHA = ps.sha
	return nil
}

// traced measures the per-layer metrics: one client, half the window
// with shims off, half with them on — same seed, same schedule, so the
// difference between the halves is the shims.
func (w *workload) traced(cfg Config, p pacing, rep *Report) error {
	p.window /= 2
	off, err := w.runPass(cfg.Seed, 1, false, p)
	if err != nil {
		return err
	}
	on, err := w.runPass(cfg.Seed, 1, true, p)
	if err != nil {
		return err
	}
	if on.sha != off.sha {
		return fmt.Errorf("bench: %s made two schedules from seed %d", w.name, cfg.Seed)
	}
	m := newMetricSet(PerLayer)
	layerMetrics(m, on.st, on.before, on.after, on.attr, on.exp)
	if w.name == "lifecycle_core" {
		kernelCeiling(m)
	}
	sortDur(off.d.late)
	m.set("bench.gen_late_p99_us", us(quantile(off.d.late, 0.99)))
	offMean, onMean := off.d.meanCall(), on.d.meanCall()
	m.set("bench.trace_overhead_frac", (onMean-offMean)/offMean)
	rep.Info["mean_op_us"] = Value{onMean / 1e3, "us"}
	endToEnd(off, func(name string, v float64, n int) {
		if !isEndToEnd(name) {
			m.set("e2e."+name, v)
			rep.Samples["e2e."+name] = int64(n)
		}
	})
	rep.Result = Result{Attempted: off.d.attempted + on.d.attempted, Failed: off.d.failed + on.d.failed, Metrics: m.complete()}
	rep.ScheduleSHA = off.sha
	if cfg.SpanFile != "" {
		return writeSpanFile(cfg.SpanFile, w.name, on.spans, on.attr.parent)
	}
	return nil
}

func isEndToEnd(name string) bool {
	for _, m := range EndToEnd {
		if m.Name == name {
			return true
		}
	}
	return false
}

// unitOf is the unit of an end-to-end figure, bounded or demoted.
func unitOf(name string) string {
	for _, m := range PerLayer {
		if m.Name == "e2e."+name {
			return m.Unit
		}
	}
	return ""
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
