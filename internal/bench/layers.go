package bench

import (
	"fmt"
	"runtime"
	"time"

	"afraid/internal/cluster"
	"afraid/internal/core"
	"afraid/internal/obs"
	"afraid/internal/parity"
	"afraid/internal/tier"
)

// tally is a histogram's count and total; two of them subtract.
type tally struct {
	n  uint64
	ns uint64
}

func tallyOf(reg *obs.Registry, name string) tally {
	s := reg.Histogram(name).Snapshot()
	return tally{s.Count, s.SumNS}
}

func (t tally) plus(o tally) tally  { return tally{t.n + o.n, t.ns + o.ns} }
func (t tally) minus(o tally) tally { return tally{t.n - o.n, t.ns - o.ns} }

// mean is the mean observation in microseconds.
func (t tally) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.n) / 1e3
}

// per is the total spread over ops operations, in microseconds.
func (t tally) per(ops int64) float64 { return float64(t.ns) / 1e3 / float64(max(ops, 1)) }

// counters is everything the stack's always-on public registries say at
// one moment: Store.Obs/Stats, Server.Metrics, tier.Store.Obs/TierStats
// and Volume.Obs/Stats, summed over the stack's stores and servers.
type counters struct {
	core                                       core.Stats
	lockWait, parityCompute, csumVerify, scrub tally
	queueWait, service                         tally
	busyRejects                                int64
	tier                                       tier.TierStats
	frontWrite, promote, demote                tally
	vol                                        cluster.Stats
	nodeRead, nodeWrite, drain                 tally
	mem                                        runtime.MemStats
}

func (s *stack) counters() counters {
	var c counters
	for _, st := range s.stores {
		x := st.Stats()
		c.core.ScrubbedStripes += x.ScrubbedStripes
		c.core.ForcedScrubs += x.ForcedScrubs
		c.core.IdleEpisodes += x.IdleEpisodes
		c.core.InlineScrubs += x.InlineScrubs
		c.core.ScrubPreempts += x.ScrubPreempts
		c.core.NVRAMPersists += x.NVRAMPersists
		c.core.DirtyStripes += x.DirtyStripes
		reg := st.Obs()
		c.lockWait = c.lockWait.plus(tallyOf(reg, "stripe_lock_wait"))
		c.parityCompute = c.parityCompute.plus(tallyOf(reg, "parity_compute"))
		c.csumVerify = c.csumVerify.plus(tallyOf(reg, "checksum_verify"))
		c.scrub = c.scrub.plus(tallyOf(reg, "scrub_stripe"))
	}
	for _, srv := range s.servers {
		m := srv.Metrics()
		c.queueWait = c.queueWait.plus(tallyOf(m.Obs(), "queue_wait"))
		c.service = c.service.plus(tallyOf(m.Obs(), "service_time"))
		c.busyRejects += m.BusyRejected.Value()
	}
	if s.tier != nil {
		c.tier = s.tier.TierStats()
		reg := s.tier.Obs()
		c.frontWrite = tallyOf(reg, "front_write")
		c.promote = tallyOf(reg, "promote")
		c.demote = tallyOf(reg, "demote")
	}
	if s.vol != nil {
		c.vol = s.vol.Stats()
		reg := s.vol.Obs()
		for i := 0; i < clusterNodes; i++ {
			c.nodeRead = c.nodeRead.plus(tallyOf(reg, fmt.Sprintf("node%d.read", i)))
			c.nodeWrite = c.nodeWrite.plus(tallyOf(reg, fmt.Sprintf("node%d.write", i)))
		}
		c.drain = tallyOf(reg, "drain.stripe")
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// layerMetrics turns one shims-on pass — counter deltas, the span
// attribution and the exposure samples — into the per-layer table.
func layerMetrics(m *metricSet, s *stack, before, after counters, a attribution, e exposure) {
	ops := max(a.ops, 1)
	us := func(ns int64) float64 { return float64(ns) / 1e3 / float64(ops) }

	// Who owns which share of a client request depends on the stack:
	// the client span's own time belongs to the top layer, a node call's
	// to the wire and server, a store call's to core.
	self := map[string]int64{s.root: a.selfNS[spClient]}
	self["server"] += a.selfNS[spNode]
	self["core"] += a.selfNS[spStore]
	for _, layer := range []string{"server", "core", "tier", "cluster"} {
		m.set(layer+".self_us_op", us(self[layer]))
	}
	m.set("device.busy_us_op", us(a.selfNS[spDevice]))
	m.set("device.bg_busy_us_op", us(a.bgNS[spDevice]))
	m.set("nvram.busy_us_op", us(a.selfNS[spNVRAM]))

	m.set("server.queue_wait_us_op", after.queueWait.minus(before.queueWait).per(ops))
	m.set("server.service_us_op", after.service.minus(before.service).per(ops))
	m.set("server.busy_rejects", float64(after.busyRejects-before.busyRejects))

	lock := after.lockWait.minus(before.lockWait)
	par := after.parityCompute.minus(before.parityCompute)
	// core's checksum_verify histogram times the device reads it wraps
	// as well; every device read of a checksummed store is inside one,
	// so taking them out leaves the verification itself.
	csum := after.csumVerify.minus(before.csumVerify)
	if csum.ns > uint64(a.devRd) {
		csum.ns -= uint64(a.devRd)
	} else {
		csum.ns = 0
	}
	m.set("core.stripe_lock_wait_us_op", lock.per(ops))
	m.set("core.parity_compute_us_op", par.per(ops))
	m.set("core.checksum_verify_us_op", csum.per(ops))
	if coreSelf := self["core"]; coreSelf > 0 {
		gap := 1 - float64(lock.ns+par.ns+csum.ns)/float64(coreSelf)
		m.set("core.obs_gap_frac", max(gap, 0))
	}
	m.set("core.scrub_stripe_us", after.scrub.minus(before.scrub).mean())
	m.set("core.idle_episodes", float64(after.core.IdleEpisodes-before.core.IdleEpisodes))
	m.set("core.forced_scrubs", float64(after.core.ForcedScrubs-before.core.ForcedScrubs))
	m.set("core.inline_scrubs", float64(after.core.InlineScrubs-before.core.InlineScrubs))
	m.set("core.scrub_preempts", float64(after.core.ScrubPreempts-before.core.ScrubPreempts))
	m.set("core.dirty_high_water", float64(e.max)) // Stats().DirtyHighWater also counts set-up's prefill
	m.set("core.parity_lag_kb", e.meanDirty()*float64(s.geo.StripeDataBytes())/1024)

	m.set("device.reads_op", float64(a.reads)/float64(ops))
	m.set("device.writes_op", float64(a.writes)/float64(ops))
	if a.userB > 0 {
		m.set("device.bytes_per_user_byte", float64(a.devB)/float64(a.userB))
	}
	m.set("device.model_service_us", float64(realisedP50(s.models))/1e3)

	// Every mark and every unmark is one bitmap change that must reach
	// NVRAM; group commit is doing its job when stores < changes.
	stores := after.core.NVRAMPersists - before.core.NVRAMPersists
	unmarks := after.core.ScrubbedStripes - before.core.ScrubbedStripes
	marks := int64(unmarks) + after.core.DirtyStripes - before.core.DirtyStripes
	m.set("nvram.stores_op", float64(a.calls[spNVRAM])/float64(ops))
	if stores > 0 {
		m.set("nvram.marks_per_store", float64(marks+int64(unmarks))/float64(stores))
	}

	if s.tier != nil {
		t0, t1 := before.tier, after.tier
		hits := t1.FrontReadHits + t1.FrontWriteHits - t0.FrontReadHits - t0.FrontWriteHits
		m.set("tier.front_hit_ratio", float64(hits)/float64(max(t1.Reads+t1.Writes-t0.Reads-t0.Writes, 1)))
		m.set("tier.front_write_us_op", after.frontWrite.minus(before.frontWrite).per(ops))
		m.set("tier.promote_us", after.promote.minus(before.promote).mean())
		m.set("tier.demote_us", after.demote.minus(before.demote).mean())
		m.set("tier.promotes", float64(t1.Promotes-t0.Promotes))
		m.set("tier.demotes", float64(t1.Demotes-t0.Demotes))
		m.set("tier.evictions", float64(t1.Evictions-t0.Evictions))
	}
	if s.vol != nil {
		m.set("cluster.node_read_us_op", after.nodeRead.minus(before.nodeRead).per(ops))
		m.set("cluster.node_write_us_op", after.nodeWrite.minus(before.nodeWrite).per(ops))
		m.set("cluster.drain_stripe_us", after.drain.minus(before.drain).mean())
		m.set("cluster.retries", float64(after.vol.Retries-before.vol.Retries))
		m.set("cluster.hedged", float64(after.vol.HedgedReads-before.vol.HedgedReads))
	}

	m.set("runtime.alloc_b_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/float64(ops))
	m.set("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	m.set("runtime.rss_mb", float64(after.mem.Sys)/(1<<20))
	m.set("bench.samples", float64(a.ops))
}

// kernelCeiling times the parity kernels directly on stripe-unit sized
// buffers: the speed no store path built on them can exceed.
func kernelCeiling(m *metricSet) {
	const unit, sources = 8 << 10, 4
	blocks := make([][]byte, sources)
	for i := range blocks {
		blocks[i] = make([]byte, unit)
		fillBlock(blocks[i], golden, int64(i), 1)
	}
	p, q := make([]byte, unit), make([]byte, unit)
	gbps := func(f func()) float64 {
		const rounds = 20000
		f() // warm
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			f()
		}
		return float64(rounds*sources*unit) / float64(time.Since(t0).Nanoseconds())
	}
	m.set("parity.xor_gather4_gbps", gbps(func() { parity.Compute(p, blocks...) }))
	m.set("parity.pq_fold_gbps", gbps(func() { parity.ComputePQ(p, q, blocks...) }))
}
