package fault

import (
	"fmt"
	"math/rand"
	"slices"
)

// This file is the one chaos runner. Run drives a seeded workload and a
// fault schedule against a Stack — core, the tier, a cluster volume, or a
// composition of them — and holds every episode to one oracle:
//
//	a successful read returns the last acknowledged value of every
//	determinate byte; reported loss is legal only on a grain that was
//	exposed at a failure point, lay under an unacknowledged write, or
//	was already reported.
//
// What differs between layers is behind Stack; everything else — the op
// generator, the shadow, the checks, the sweeps and the close — is here
// once.

// Kind classifies an I/O error for the oracle.
type Kind int

const (
	KindFatal    Kind = iota // outside every contract: a violation
	KindPowerCut             // the machine lost power: the op is unacknowledged and the workload ends
	KindLoss                 // reported loss: legal only under the rule above
)

// Grain is one size the aligned op class draws from: ops of one to Most
// whole grains, grain-aligned — the shape a layer moves whole.
type Grain struct{ Bytes, Most int64 }

// Loss is a client range a layer reported lost. Zeroed means the layer
// replaced the content with zeros (core's repair does); otherwise reads
// keep failing until the range is written again.
type Loss struct {
	Off, Len int64
	Zeroed   bool
}

// Stack is what differs between the layers an episode can run against.
// The I/O methods reach whatever the layer currently is: a power cycle
// replaces the store behind them.
type Stack interface {
	// Open assembles the layer on fresh media and arms the faults its
	// schedule lands mid-workload, drawing from e.Rng.
	Open(e *Episode) error
	Close()

	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Capacity() int64
	// Flush brings redundancy up to date; Audit then lists the loss
	// grains whose redundancy is inconsistent.
	Flush() error
	Audit() (bad []int64, err error)
	// StatMap is the current incarnation's counters; Run sums them over
	// power cycles, so coverage gates are keys.
	StatMap() map[string]int64

	Grains() []Grain
	// LossGrain is the bytes of client space per unit of exposure and
	// loss accounting (a stripe's data); 0 for a layer whose schedules
	// never exceed its redundancy, where no acknowledged byte may be lost.
	LossGrain() int64
	// Exposed lists the loss grains unredundant right now — for a layer
	// that knows which of its units failed, those whose failed units
	// outnumber their fresh redundancy; Failures counts the failures that
	// have landed on the layer. Run samples Exposed whenever Failures
	// moves: that is a failure point.
	Exposed() []int64
	Failures() int
	PowerLost() bool
	Classify(err error) Kind
}

// Step is one move of a schedule: a fault step of a stack, a stretch of
// workload, a sweep. An error means the episode could not run.
type Step func(e *Episode) error

// Plan is an episode's workload shape and schedule.
type Plan struct {
	WriteFrac float64 // share of ops that write
	MaxIO     int64   // most bytes in a random op
	HotSpan   int64   // half the random ops land in this prefix; 0 for none
	Fill      bool    // write the whole space and flush before the schedule starts
	Steps     []Step
}

// Workload is the step that runs n workload ops.
func Workload(n int) Step { return func(e *Episode) error { e.Workload(n); return nil } }

// Sweep is the step that reads and checks the whole space.
func Sweep(label string) Step { return func(e *Episode) error { e.Sweep(label); return nil } }

// Result is one episode's outcome. Violations are breaches of the
// contract; everything else is accounting.
type Result struct {
	Seed       int64
	Violations []string

	AckedWrites  int
	FailedWrites int   // unacknowledged writes: their ranges become indeterminate
	Exposed      int   // loss grains unredundant at some failure point
	Holes        int   // loss grains under an unacknowledged write
	LossEvents   int   // reads, writes and flushes that reported loss
	LostBytes    int64 // bytes fault steps reported lost
	// Stats sums StatMap over the episode's incarnations of the layer
	// (less the fill, when the plan has one), plus fault.power_cycles.
	Stats map[string]int64
}

const maxViolations = 20

// Episode is the state of one Run, and the handle a Step works through.
type Episode struct {
	Seed int64
	Rng  *rand.Rand

	s   Stack
	p   Plan
	res *Result

	// The shadow: the content of every acknowledged write and a per-byte
	// determinacy flag. A byte starts determinate zero; an acknowledged
	// write makes its range determinate; an unacknowledged one makes it
	// indeterminate — old bytes, new bytes or a torn mix are all legal.
	data []byte
	det  []bool

	grain    int64
	exposed  map[int64]bool // union of Exposed() over the failure points
	holes    map[int64]bool // grains under an unacknowledged write
	reported map[int64]bool // grains a fault step reported lost
	rewrite  []Loss         // reported lost and unreadable until written again
	failures int
}

// Run runs one seeded episode of p against s and checks it against the
// shadow. The error is for an episode that could not run; breaches of
// the contract are in Result.Violations.
func Run(seed int64, s Stack, p Plan) (*Result, error) {
	e := &Episode{
		Seed: seed, Rng: rand.New(rand.NewSource(seed)),
		s: s, p: p, res: &Result{Seed: seed, Stats: map[string]int64{"fault.power_cycles": 0}},
		exposed: map[int64]bool{}, holes: map[int64]bool{}, reported: map[int64]bool{},
	}
	if err := s.Open(e); err != nil {
		return e.res, err
	}
	defer s.Close()
	e.grain = s.LossGrain()
	e.data = make([]byte, s.Capacity())
	e.det = make([]bool, len(e.data))
	for i := range e.det {
		e.det[i] = true
	}
	if p.Fill {
		chunk := e.sweepChunk()
		for off := int64(0); off < int64(len(e.data)); off += chunk {
			e.write(off, min(chunk, int64(len(e.data))-off))
		}
		if err := s.Flush(); err != nil {
			e.Violatef("fill flush: %v", err)
		}
		e.fold(-1)
	}
	for _, step := range p.Steps {
		if err := step(e); err != nil {
			return e.res, err
		}
	}
	e.close()
	return e.res, nil
}

// Violatef records a breach of the contract.
func (e *Episode) Violatef(format string, args ...any) {
	if len(e.res.Violations) < maxViolations {
		e.res.Violations = append(e.res.Violations, fmt.Sprintf(format, args...))
	}
}

// fold adds the layer's current counters to the result, sign times.
func (e *Episode) fold(sign int64) {
	for k, v := range e.s.StatMap() {
		e.res.Stats[k] += sign * v
	}
}

// Sample folds what the layer has unredundant right now into the
// exposure union, and takes the failure count it stands for as the one to
// watch. Run calls it when Failures moves; a fault step calls it at the
// failure points it makes.
func (e *Episode) Sample() {
	e.failures = e.s.Failures()
	for _, g := range e.s.Exposed() {
		e.exposed[g] = true
	}
}

// noteFailures samples exposure if a member failed since the last look.
func (e *Episode) noteFailures() {
	if e.s.Failures() != e.failures {
		e.Sample()
	}
}

// PowerCycle is the one crash protocol: the dying incarnation's counters
// are folded, reopen cuts the power (if a fuse has not) and brings the
// layer back through its recovery, and what recovery kept marked is
// sampled — a power cut is a failure point.
func (e *Episode) PowerCycle(reopen func() error) error {
	e.fold(1)
	if err := reopen(); err != nil {
		return err
	}
	e.res.Stats["fault.power_cycles"]++
	e.Sample()
	return nil
}

// grains calls f for each loss grain overlapping [off, off+n).
func (e *Episode) grains(off, n int64, f func(g int64)) {
	if e.grain == 0 || n <= 0 {
		return
	}
	for g := off / e.grain; g <= (off+n-1)/e.grain; g++ {
		f(g)
	}
}

// lossLegal is the allowed-loss rule: loss over [off, off+n) is legal if
// no acknowledged byte lies there, or if some grain of it was exposed at
// a failure point, lay under an unacknowledged write, or was already
// reported.
func (e *Episode) lossLegal(off, n int64) bool {
	e.noteFailures()
	legal := !slices.Contains(e.det[off:off+n], true)
	e.grains(off, n, func(g int64) {
		legal = legal || e.exposed[g] || e.holes[g] || e.reported[g]
	})
	return legal
}

// lost judges one reported loss.
func (e *Episode) lost(what string, off, n int64, err error) {
	e.res.LossEvents++
	if !e.lossLegal(off, n) {
		e.Violatef("%s [%d,%d) lost (%v) but was redundant at every failure point", what, off, off+n, err)
	}
}

// Lost accounts the ranges a fault step's layer reported lost.
func (e *Episode) Lost(by string, losses []Loss) {
	for _, l := range losses {
		if !e.lossLegal(l.Off, l.Len) {
			e.Violatef("%s lost [%d,%d), which was redundant at every failure point", by, l.Off, l.Off+l.Len)
		}
		e.grains(l.Off, l.Len, func(g int64) { e.reported[g] = true })
		for i := l.Off; i < l.Off+l.Len; i++ {
			e.data[i], e.det[i] = 0, l.Zeroed
		}
		if !l.Zeroed {
			e.rewrite = append(e.rewrite, l)
		}
		e.res.LostBytes += l.Len
	}
}

// distrust makes a range indeterminate: what an unacknowledged write
// leaves behind.
func (e *Episode) distrust(off, n int64) {
	for i := off; i < off+n; i++ {
		e.det[i] = false
	}
}

// write issues one write of fresh random bytes and records its outcome.
// It reports false when the power failed under it.
func (e *Episode) write(off, n int64) bool {
	p := make([]byte, n)
	e.Rng.Read(p)
	_, err := e.s.WriteAt(p, off)
	if err == nil {
		e.res.AckedWrites++
		copy(e.data[off:], p)
		for i := off; i < off+n; i++ {
			e.det[i] = true
		}
		return true
	}
	// Unacknowledged: the range may hold old bytes, new bytes or a torn
	// mix, and the grains it spans may carry inconsistent redundancy.
	e.res.FailedWrites++
	kind := e.s.Classify(err)
	switch kind {
	case KindLoss:
		e.lost("write", off, n, err)
	case KindFatal:
		e.Violatef("write [%d,%d): %v", off, off+n, err)
	}
	e.distrust(off, n)
	e.grains(off, n, func(g int64) { e.holes[g] = true })
	return kind != KindPowerCut
}

// alignedFrac is the share of workload ops that cover whole grains,
// grain-aligned: the shape a store writes as a full stripe, a tier
// migrates whole, and a degraded read solves in place.
const alignedFrac = 0.15

// Workload issues ops seeded random reads and writes, keeping the
// shadow and checking every read as it returns. It ends early when the
// power fails.
func (e *Episode) Workload(ops int) {
	capacity := int64(len(e.data))
	grains := e.s.Grains()
	for i := 0; i < ops && !e.s.PowerLost(); i++ {
		n := min(1+e.Rng.Int63n(e.p.MaxIO), capacity)
		off := e.Rng.Int63n(capacity - n + 1)
		if hot := min(e.p.HotSpan, capacity); hot > 0 && e.Rng.Float64() < 0.5 && n <= hot {
			// Re-hit a hot prefix so a tier's extents stay resident long
			// enough to take front write hits.
			off = e.Rng.Int63n(hot - n + 1)
		}
		if e.Rng.Float64() < alignedFrac {
			g := grains[0]
			if len(grains) > 1 {
				g = grains[e.Rng.Intn(len(grains))]
			}
			k := min(1+e.Rng.Int63n(g.Most), capacity/g.Bytes)
			n, off = k*g.Bytes, e.Rng.Int63n(capacity/g.Bytes-k+1)*g.Bytes
		}
		if e.Rng.Float64() < e.p.WriteFrac {
			if !e.write(off, n) {
				return
			}
		} else if !e.read("live read", off, make([]byte, n)) {
			return
		}
		e.noteFailures()
	}
}

// read reads and checks one range. It reports false when the power
// failed under it.
func (e *Episode) read(label string, off int64, p []byte) bool {
	_, err := e.s.ReadAt(p, off)
	if err == nil {
		e.check(label, off, p)
		return true
	}
	switch e.s.Classify(err) {
	case KindPowerCut:
		return false
	case KindLoss:
		e.lost(label, off, int64(len(p)), err)
	default:
		e.Violatef("%s [%d,%d): %v", label, off, off+int64(len(p)), err)
	}
	return true
}

// check compares a successful read against the shadow: a determinate
// byte that comes back wrong is silent divergence, the one thing no
// layer may ever produce.
func (e *Episode) check(label string, off int64, got []byte) {
	for i, b := range got {
		at := off + int64(i)
		if !e.det[at] || e.data[at] == b {
			continue
		}
		if e.grain == 0 {
			e.Violatef("%s: byte %d diverged from acknowledged write (%02x, want %02x)", label, at, b, e.data[at])
			return
		}
		e.Violatef("%s: byte %d (stripe %d) diverged from acknowledged write", label, at, at/e.grain)
		return
	}
}

// sweepChunk is the read size of a sweep: the largest declared grain.
func (e *Episode) sweepChunk() int64 {
	chunk := e.grain
	for _, g := range e.s.Grains() {
		chunk = max(chunk, g.Bytes)
	}
	return chunk
}

// Sweep reads the whole space and checks every determinate byte.
func (e *Episode) Sweep(label string) {
	chunk := e.sweepChunk()
	buf := make([]byte, chunk)
	for off := int64(0); off < int64(len(e.data)); off += chunk {
		p := buf[:min(chunk, int64(len(e.data))-off)]
		if !e.read(label, off, p) {
			e.Violatef("%s [%d,%d): power failed under the sweep", label, off, off+int64(len(p)))
		}
	}
}

// close ends every episode the same way: what was reported lost is
// written again, Flush brings redundancy up to date, the audit checks
// it, and a last sweep checks that none of that moved a byte.
func (e *Episode) close() {
	for _, l := range e.rewrite {
		e.write(l.Off, l.Len)
	}
	if err := e.s.Flush(); err != nil {
		if e.s.Classify(err) != KindLoss {
			e.Violatef("flush: %v", err)
		} else {
			// Grains the layer holds unredundant because their content is
			// gone keep Flush from finishing. That is loss accounting, not
			// a failed flush — where loss is legal.
			e.res.LossEvents++
			held := e.s.Exposed()
			if len(held) == 0 {
				e.Violatef("flush reported loss (%v) with nothing held unredundant", err)
			}
			for _, g := range held {
				if !e.lossLegal(g*e.grain, e.grain) {
					e.Violatef("stripe %d is held unredundant by loss but was redundant at every failure point", g)
				}
			}
			e.Sample()
		}
	}
	now := map[int64]bool{}
	for _, g := range e.s.Exposed() {
		now[g] = true
	}
	bad, err := e.s.Audit()
	if err != nil {
		e.Violatef("audit: %v", err)
	}
	for _, g := range bad {
		// Only a hole (a synchronous layer never revisits it), a grain
		// still held unredundant, and a grain whose reads report legal
		// loss may be inconsistent after a flush.
		if e.grain > 0 {
			if e.holes[g] || now[g] {
				continue
			}
			if _, rerr := e.s.ReadAt(make([]byte, e.grain), g*e.grain); rerr != nil &&
				e.s.Classify(rerr) == KindLoss && e.lossLegal(g*e.grain, e.grain) {
				continue
			}
		}
		e.Violatef("redundancy inconsistent after flush on stripe %d (not a hole stripe)", g)
	}
	e.Sweep("final")
	e.fold(1)
	e.res.Exposed, e.res.Holes = len(e.exposed), len(e.holes)
}
