// Package afraid reproduces AFRAID — A Frequently Redundant Array of
// Independent Disks (Savage & Wilkes, USENIX 1996) — as a Go library.
//
// AFRAID eliminates RAID 5's small-update penalty by applying data
// writes immediately and deferring the parity update to the next idle
// period, recording stale-parity stripes in a small NVRAM bitmap. The
// array is *frequently* redundant instead of always redundant; policies
// trade the exposure window against performance, from pure AFRAID down
// to plain RAID 5.
//
// The package exposes the two halves of the reproduction:
//
//   - A functional software array (Store): real data over pluggable
//     block devices with AFRAID/RAID 5/RAID 0 modes, a background parity
//     scrubber, NVRAM crash recovery, failure injection, and
//     reconstruction. Use OpenStore.
//
//   - A discrete-event performance simulator: calibrated mechanical
//     disk models, the paper's controller configuration, the synthetic
//     workload catalog standing in for the original HP/IBM traces, and
//     the availability analytics of §3. Use SimulateTrace /
//     SimulateWorkload and the Avail* types.
//
// The cmd/experiments binary and the benchmarks in this package
// regenerate every table and figure in the paper's evaluation; see
// DESIGN.md and EXPERIMENTS.md.
package afraid

import (
	"io"
	"time"

	"afraid/internal/array"
	"afraid/internal/avail"
	"afraid/internal/core"
	"afraid/internal/disk"
	"afraid/internal/layout"
	"afraid/internal/sim"
	"afraid/internal/trace"
)

// Simulator types.
type (
	// SimMode selects the simulated array's redundancy behaviour.
	SimMode = array.Mode
	// SimConfig describes a simulated array (geometry, disk model,
	// caches, policies).
	SimConfig = array.Config
	// SimPolicy carries the AFRAID availability knobs for simulation.
	SimPolicy = array.Policy
	// SimMetrics summarizes a simulation run.
	SimMetrics = array.Metrics
	// Trace is a time-ordered I/O trace.
	Trace = trace.Trace
	// TraceRecord is a single trace I/O.
	TraceRecord = trace.Record
	// TraceParams parameterizes a synthetic workload generator.
	TraceParams = trace.Params
	// DiskParams describes a mechanical disk model.
	DiskParams = disk.Params
	// Geometry describes array striping.
	Geometry = layout.Geometry
	// SimFault injects a disk failure into a simulation (degraded-mode
	// study with optional hot-spare rebuild).
	SimFault = array.Fault
)

// Simulated array modes: as for the Store modes below, each but
// SimPARITYLOG is a parity layout and the sync count its writes keep
// (SimMode.Parities).
const (
	// SimRAID0 is the unprotected baseline (an AFRAID that never
	// updates parity, exactly as the paper models it).
	SimRAID0 = array.RAID0
	// SimRAID5 is the traditional always-redundant array.
	SimRAID5 = array.RAID5
	// SimAFRAID defers parity to idle periods.
	SimAFRAID = array.AFRAID
	// SimPARITYLOG is the §2 related-work baseline (Stodolsky et al.):
	// parity update images logged and batch-reintegrated.
	SimPARITYLOG = array.PARITYLOG
	// SimRAID6 keeps synchronous P and Q parity (§5).
	SimRAID6 = array.RAID6
	// SimAFRAID6 keeps P synchronous and defers the Q update (§5), so
	// single-failure protection is retained at all times.
	SimAFRAID6 = array.AFRAID6
	// SimAFRAID6PQ defers both RAID 6 parity updates (§5).
	SimAFRAID6PQ = array.AFRAID6PQ
)

// Availability analytics (paper §3).
type (
	// AvailParams carries the Table 1 constants plus array shape.
	AvailParams = avail.Params
	// AvailReport bundles derived MTTDL/MDLR figures.
	AvailReport = avail.Report
	// PowerModel is the §3.5 external-power failure model.
	PowerModel = avail.Power
)

// Functional store types.
type (
	// Store is the functional AFRAID array over block devices.
	Store = core.Store
	// StoreOptions configures a Store.
	StoreOptions = core.Options
	// StoreMode selects the store's redundancy mode.
	StoreMode = core.Mode
	// BlockDevice backs one member disk of a Store.
	BlockDevice = core.BlockDevice
	// MemDevice is an in-memory BlockDevice.
	MemDevice = core.MemDevice
	// FileDevice is a file-backed BlockDevice.
	FileDevice = core.FileDevice
	// NVRAM persists the marking memory across crashes.
	NVRAM = core.NVRAM
	// MemNVRAM is an in-memory NVRAM for tests and examples.
	MemNVRAM = core.MemNVRAM
	// FileNVRAM persists the marking memory in a file.
	FileNVRAM = core.FileNVRAM
	// DamageReport lists data lost during a repair.
	DamageReport = core.DamageReport
)

// Store modes: each a parity layout and the sync count every stripe
// opens with — how many parities a write keeps current, the rest
// deferred to the scrubber. Store.SetSync changes it for a stripe-aligned
// range (§5).
const (
	// StoreAFRAID defers parity to the background scrubber.
	StoreAFRAID = core.Afraid
	// StoreRAID5 maintains parity synchronously.
	StoreRAID5 = core.Raid5
	// StoreRAID0 never maintains parity.
	StoreRAID0 = core.Raid0
	// StoreRAID6 maintains P and Q synchronously (§5).
	StoreRAID6 = core.Raid6
	// StoreAFRAID6 keeps P in sync and defers the Q update to the
	// scrubber (§5); SetSync(0, Capacity(), 0) defers both parities.
	StoreAFRAID6 = core.Afraid6
)

// Store errors.
var (
	// ErrDataLoss marks bytes lost to a failure in an unprotected stripe.
	ErrDataLoss = core.ErrDataLoss
	// ErrTooManyFailures means redundancy cannot absorb the failures.
	ErrTooManyFailures = core.ErrTooManyFailures
)

// OpenStore assembles a functional AFRAID store over the devices,
// recovering the dirty-stripe map from nv (which may be nil for a
// volatile store).
func OpenStore(devs []BlockDevice, nv NVRAM, opts StoreOptions) (*Store, error) {
	return core.Open(devs, nv, opts)
}

// NewMemDevice allocates a zeroed in-memory block device.
func NewMemDevice(size int64) *MemDevice { return core.NewMemDevice(size) }

// OpenFileDevice creates or opens a file-backed device of exactly size
// bytes.
func OpenFileDevice(path string, size int64) (*FileDevice, error) {
	return core.OpenFileDevice(path, size, false)
}

// NewFileNVRAM returns a file-backed NVRAM at path.
func NewFileNVRAM(path string) *FileNVRAM { return core.NewFileNVRAM(path) }

// DefaultSimConfig returns the paper's experimental setup for the given
// mode: five spin-synchronized HP C3325-class disks, 8 KB stripe units,
// 256 KB write-through staging and read caches, CLOOK host queue, FCFS
// disk queues, 100 ms idle detection.
func DefaultSimConfig(mode SimMode) SimConfig { return array.DefaultConfig(mode) }

// DefaultAvailParams returns the paper's Table 1 constants.
func DefaultAvailParams() AvailParams { return avail.Default() }

// DiskModelC3325 returns the HP C3325-class disk model parameters.
func DiskModelC3325() DiskParams { return disk.C3325() }

// SimulateTrace replays a trace against a simulated array and returns
// its metrics.
func SimulateTrace(cfg SimConfig, tr *Trace) (SimMetrics, error) {
	return array.RunTrace(cfg, tr)
}

// SimulateWorkload generates the named catalog workload (see Workloads)
// and replays it against a simulated array.
func SimulateWorkload(cfg SimConfig, workload string, duration time.Duration, seed uint64) (SimMetrics, error) {
	return array.RunNamed(cfg, workload, duration, seed)
}

// Workloads lists the synthetic workload catalog, one entry per trace
// in the paper's evaluation (hplajw, snake, cello-usr, cello-news,
// netware, att, as400-1..4).
func Workloads() []string { return trace.Names() }

// WorkloadParams returns the generator parameters for a named workload.
func WorkloadParams(name string, duration time.Duration) (TraceParams, error) {
	return trace.Lookup(name, duration)
}

// GenerateTrace synthesizes a trace for an array of the given client
// capacity. Identical seeds produce identical traces.
func GenerateTrace(p TraceParams, capacity int64, seed uint64) (*Trace, error) {
	return trace.Generate(p, capacity, sim.NewRNG(seed))
}

// ReadTrace decodes a trace from the text format produced by
// (*Trace).Write (one "<time_us> <R|W> <offset> <length>" record per
// line).
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }
