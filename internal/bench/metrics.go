// Package bench is afraidbench: the end-to-end, layer-attributed
// benchmark of the live stack (client → server → core → device, client
// → tier → core → device, client → cluster → nodes). It builds each
// stack in-process from the public constructors, drives it with
// paper-shaped load made from a seed, verifies every byte it reads, and
// reports a fixed set of named metrics. README.md in this directory is
// the glossary; BENCHMARK.json at the repo root is generated from the
// tables in this file.
package bench

import (
	"fmt"
	"io"
	"sort"
)

// Metric names one reported number. Bound is the share of the parent
// commit's median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEnd lists what a user of the store sees and a later change is
// held to. Every workload reports every one of them on an untraced run,
// so each is defined on all five workloads (README.md says how) and
// none can be zero; and each must read the same on a host that takes
// processors away for milliseconds at a time, which is why the I/O time
// that carries a bound is a first quartile and the paper's mean I/O time
// is in the e2e group below (README.md, "Why the first quartile"). The
// bounds are the widest allowed because the reference machine's own
// speed drifts by more than any tighter one (README.md, "Why 0.25").
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"io_q1_us", "us", "lower", 0.25},
}

// PerLayer lists what a traced run reports: one group per repo module,
// then the end-to-end figures that cannot carry a bound — not defined
// on every workload, or moving with the seed or with what the host does
// to the machine by more than any bound allows (the e2e group) —
// measured in the traced run's shims-off pass.
var PerLayer = []Metric{
	{"server.self_us_op", "us", "lower", 0},
	{"server.queue_wait_us_op", "us", "lower", 0},
	{"server.service_us_op", "us", "lower", 0},
	{"server.busy_rejects", "count", "lower", 0},

	{"core.self_us_op", "us", "lower", 0},
	{"core.stripe_lock_wait_us_op", "us", "lower", 0},
	{"core.parity_compute_us_op", "us", "lower", 0},
	{"core.checksum_verify_us_op", "us", "lower", 0},
	{"core.obs_gap_frac", "1", "lower", 0},
	{"core.scrub_stripe_us", "us", "lower", 0},
	{"core.idle_episodes", "count", "higher", 0},
	{"core.forced_scrubs", "count", "lower", 0},
	{"core.inline_scrubs", "count", "lower", 0},
	{"core.scrub_preempts", "count", "lower", 0},
	{"core.dirty_high_water", "count", "lower", 0},
	{"core.parity_lag_kb", "KiB", "lower", 0},

	{"device.reads_op", "1", "lower", 0},
	{"device.writes_op", "1", "lower", 0},
	{"device.bytes_per_user_byte", "1", "lower", 0},
	{"device.busy_us_op", "us", "lower", 0},
	{"device.bg_busy_us_op", "us", "lower", 0},
	{"device.model_service_us", "us", "lower", 0},

	{"nvram.stores_op", "1", "lower", 0},
	{"nvram.marks_per_store", "1", "higher", 0},
	{"nvram.busy_us_op", "us", "lower", 0},

	{"parity.xor_gather4_gbps", "GB/s", "higher", 0},
	{"parity.pq_fold_gbps", "GB/s", "higher", 0},

	{"tier.self_us_op", "us", "lower", 0},
	{"tier.front_hit_ratio", "1", "higher", 0},
	{"tier.front_write_us_op", "us", "lower", 0},
	{"tier.promote_us", "us", "lower", 0},
	{"tier.demote_us", "us", "lower", 0},
	{"tier.promotes", "count", "lower", 0},
	{"tier.demotes", "count", "lower", 0},
	{"tier.evictions", "count", "lower", 0},

	{"cluster.self_us_op", "us", "lower", 0},
	{"cluster.node_read_us_op", "us", "lower", 0},
	{"cluster.node_write_us_op", "us", "lower", 0},
	{"cluster.drain_stripe_us", "us", "lower", 0},
	{"cluster.retries", "count", "lower", 0},
	{"cluster.hedged", "count", "lower", 0},

	{"runtime.alloc_b_op", "B", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.rss_mb", "MiB", "lower", 0},

	{"bench.gen_late_p99_us", "us", "lower", 0},
	{"bench.trace_overhead_frac", "1", "lower", 0},
	{"bench.samples", "count", "higher", 0},

	{"e2e.io_mean_us", "us", "lower", 0},
	{"e2e.ops_s", "1/s", "higher", 0},
	{"e2e.read_p50_us", "us", "lower", 0},
	{"e2e.write_p50_us", "us", "lower", 0},
	{"e2e.read_p99_us", "us", "lower", 0},
	{"e2e.write_p99_us", "us", "lower", 0},
	{"e2e.unredundant_frac", "1", "lower", 0},
	{"e2e.write_mbps", "MB/s", "higher", 0},
	{"e2e.read_mbps", "MB/s", "higher", 0},
	{"e2e.flush_mbps", "MB/s", "higher", 0},
	{"e2e.degraded_read_mbps", "MB/s", "higher", 0},
	{"e2e.rebuild_mbps", "MB/s", "higher", 0},
}

// Value is one measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what the last line of standard output carries: the exact
// shape the benchmark driver reads.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Meta records where a report was measured.
type Meta struct {
	Commit string `json:"commit"`
	Go     string `json:"go"`
	Kernel string `json:"kernel"` // parity.Kernel()
	NProc  int    `json:"nproc"`
}

// Report is one run of one workload: the driver-facing Result plus
// what a person comparing runs needs. Info holds figures that are
// printed but not part of the driver's contract (the two-client p99s,
// ops/s and exposure of an untraced run).
type Report struct {
	Workload    string           `json:"workload"`
	Seed        uint64           `json:"seed"`
	Seconds     float64          `json:"seconds"`
	Trace       bool             `json:"trace"`
	ScheduleSHA string           `json:"schedule_sha"`
	Meta        Meta             `json:"meta"`
	Samples     map[string]int64 `json:"samples"`
	Info        map[string]Value `json:"info,omitempty"`
	Result
}

// metricSet collects values against one of the tables above.
type metricSet struct {
	table []Metric
	vals  map[string]Value
}

func newMetricSet(table []Metric) *metricSet {
	return &metricSet{table: table, vals: make(map[string]Value, len(table))}
}

// set records a value; the name must be in the table.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.table {
		if d.Name == name {
			m.vals[name] = Value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// complete fills every metric the workload did not set with zero, so a
// traced run always prints the whole per-layer table.
func (m *metricSet) complete() map[string]Value {
	for _, d := range m.table {
		if _, ok := m.vals[d.Name]; !ok {
			m.vals[d.Name] = Value{Unit: d.Unit}
		}
	}
	return m.vals
}

func sortedKeys(m map[string]Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Print writes the report for a person: every metric by name with its
// unit, the bound and direction of the end-to-end ones, and the sample
// count behind each timing.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  window %gs  trace %v  commit %s  %s  kernel %s  nproc %d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Meta.Commit, r.Meta.Go, r.Meta.Kernel, r.Meta.NProc)
	fmt.Fprintf(w, "  schedule_sha %s  attempted %d  failed %d  failed_frac %g\n",
		r.ScheduleSHA, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	line := func(name string, v Value, note string) {
		if n, ok := r.Samples[name]; ok {
			note += fmt.Sprintf("  n=%d", n)
		}
		fmt.Fprintf(w, "  %-30s %16.4f %-6s%s\n", name, v.Value, v.Unit, note)
	}
	table := PerLayer
	if !r.Trace {
		table = EndToEnd
	}
	for _, m := range table {
		note := "  " + m.Better + " is better"
		if m.Bound > 0 {
			note += fmt.Sprintf(", bound %.2f", m.Bound)
		}
		line(m.Name, r.Metrics[m.Name], note)
	}
	for _, name := range sortedKeys(r.Info) {
		line(name, r.Info[name], "  (no bound)")
	}
}
