package bench

import (
	"sort"
	"time"
)

// endToEnd works out what a user of the stack saw in one pass and
// hands each figure to emit with the number of samples behind it.
// Names are those of the EndToEnd table, plus the figures kept without
// a bound (PerLayer's e2e group, without the prefix).
func endToEnd(ps *pass, emit func(name string, v float64, samples int)) {
	d := ps.d
	var lat [numOpKinds][]time.Duration
	for _, s := range d.samples {
		lat[s.kind] = append(lat[s.kind], s.lat)
	}
	// The bounded figure is the mean I/O time with every operation
	// counted at the first quartile of its kind: what an operation costs
	// when nothing got in its way. On a shared host whatever gets in the
	// way is mostly the host: the plain mean follows the slowest
	// hundredth of the operations, the median gives way once half of
	// them have met a stolen or halted processor somewhere on their
	// path, and the first quartile holds until three quarters have
	// (README.md, "Why the first quartile").
	var q1 float64
	for k := range lat {
		sortDur(lat[k])
		q1 += float64(len(lat[k])) * us(quantile(lat[k], 0.25))
	}
	emit("io_q1_us", q1/float64(max(len(d.samples), 1)), len(d.samples))
	reads, writes := lat[opRead], lat[opWrite]
	emit("read_p50_us", us(quantile(reads, 0.50)), len(reads))
	emit("write_p50_us", us(quantile(writes, 0.50)), len(writes))
	// A p99 is reported only where at least ten samples lie beyond it.
	if len(reads) >= 1000 {
		emit("read_p99_us", us(quantile(reads, 0.99)), len(reads))
	}
	if len(writes) >= 1000 {
		emit("write_p99_us", us(quantile(writes, 0.99)), len(writes))
	}
	emit("unredundant_frac", ps.exp.frac(), int(ps.exp.samples))

	if cycle, ok := d.phases["cycle"]; ok {
		// The lifecycle's mean I/O time spreads everything a cycle
		// costs — repair and check included — over the chunk operations
		// a client made in it: what each client operation costs once
		// the upkeep it causes is paid.
		ops := float64(d.opsPerCycle)
		emit("io_mean_us", us(medianDur(cycle.times))/ops, len(cycle.times))
		emit("ops_s", ops/medianDur(cycle.times).Seconds(), len(cycle.times))
		for _, name := range []string{"write", "read", "flush", "degraded_read", "rebuild"} {
			ph := d.phases[name]
			emit(name+"_mbps", float64(ph.bytes)/1e6/medianDur(ph.times).Seconds(), len(ph.times))
		}
		return
	}

	// The window is cut into one-second slices and the median slice is
	// reported, so one collection pause or timer hiccup does not move
	// the figure. An open loop's idle slices are empty and left out.
	slices := max(int(d.window/time.Second), 1)
	width := d.window / time.Duration(slices)
	count := make([]int, slices)
	sum := make([]time.Duration, slices)
	for _, s := range d.samples {
		i := min(int(s.end/width), slices-1)
		count[i]++
		sum[i] += s.lat
	}
	var means, rates []float64
	for i := range count {
		if count[i] > 0 {
			means = append(means, us(sum[i]/time.Duration(count[i])))
			rates = append(rates, float64(count[i])/width.Seconds())
		}
	}
	emit("io_mean_us", median(means), len(d.samples))
	emit("ops_s", median(rates), len(d.samples))
	if ps.dirtyAtFlush > 0 && ps.flush > 0 {
		emit("flush_mbps", float64(ps.dirtyAtFlush*ps.st.geo.StripeDataBytes())/1e6/ps.flush.Seconds(), 1)
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func sortDur(ds []time.Duration) { sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] }) }

// quantile is the q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sortDur(s)
	return quantile(s, 0.5)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
