package server

import (
	"strings"
	"sync/atomic"
	"time"

	"afraid/internal/obs"
)

// Int is a lock-free counter or gauge.
type Int struct{ v atomic.Int64 }

// Add adds delta, which may be negative.
func (i *Int) Add(delta int64) { i.v.Add(delta) }

// Value returns the current value.
func (i *Int) Value() int64 { return i.v.Load() }

// Metrics counts server activity in plain atomics and records request
// latencies in lock-free obs histograms. Both are per server, so
// several servers in one process (tests, benchmarks) do not collide.
// The counters travel in the STAT snapshot under "server." keys (stat);
// the histogram registry is mounted separately (obs.HistogramHandler)
// as the "server" section of /debug/histograms.
type Metrics struct {
	// Per-op request counters: one frame, one request, one store call.
	requests [OpStat + 1]Int
	// Per-status response counters.
	responses [StatusShutdown + 1]Int

	ConnsOpen     Int
	ConnsTotal    Int
	Handlers      Int // handler goroutines alive, busy or idle
	HandlerStarts Int
	Inflight      Int
	BusyRejected  Int
	BytesRead     Int
	BytesWritten  Int

	reg       *obs.Registry
	opLat     [OpStat + 1]*obs.Histogram // end-to-end latency per op
	queueWait *obs.Histogram             // dispatch -> handler running
	service   *obs.Histogram             // handler running -> completion
	trace     *obs.Ring
}

func newMetrics() *Metrics {
	m := &Metrics{reg: obs.NewRegistry()}
	for op := OpRead; op <= OpStat; op++ {
		m.opLat[op] = m.reg.Histogram(op.String())
	}
	m.queueWait = m.reg.Histogram("queue_wait")
	m.service = m.reg.Histogram("service_time")
	m.trace = m.reg.Ring("requests", 1024)
	return m
}

// request counts one received frame of a decoded (hence valid) op.
func (m *Metrics) request(op Op) { m.requests[op].Add(1) }

// task records one executed request that arrived at start: its response
// status, its end-to-end latency, the queue-wait/service-time split and a
// trace-ring event.
func (m *Metrics) task(r *Request, st Status, start time.Time, queued, total time.Duration) {
	m.responses[st].Add(1)
	m.opLat[r.Op].Observe(total)
	m.queueWait.Observe(queued)
	m.service.Observe(total - queued)
	ev := obs.Event{
		Op:    r.Op.String(),
		Off:   r.Off,
		Len:   int64(r.Length),
		Start: start,
		Queue: queued,
		Total: total,
	}
	if st != StatusOK {
		ev.Err = st.String()
	}
	m.trace.Record(ev)
}

// Obs returns the server's histogram/trace registry for mounting on a
// debug endpoint.
func (m *Metrics) Obs() *obs.Registry { return m.reg }

// stat adds the server's own entries to a STAT snapshot.
func (m *Metrics) stat(dst Stat) {
	dst["server.conns_open"] = m.ConnsOpen.Value()
	dst["server.conns_total"] = m.ConnsTotal.Value()
	dst["server.handlers"] = m.Handlers.Value()
	dst["server.handler_starts"] = m.HandlerStarts.Value()
	dst["server.inflight"] = m.Inflight.Value()
	dst["server.busy_rejected"] = m.BusyRejected.Value()
	dst["server.bytes_read"] = m.BytesRead.Value()
	dst["server.bytes_written"] = m.BytesWritten.Value()
	for op := OpRead; op <= OpStat; op++ {
		dst["server.requests."+strings.ToLower(op.String())] = m.requests[op].Value()
	}
	for st := range m.responses {
		dst["server.responses."+strings.ToLower(Status(st).String())] = m.responses[st].Value()
	}
	for _, op := range [...]Op{OpRead, OpWrite} {
		lat, name := m.opLat[op].Snapshot(), "server."+strings.ToLower(op.String())
		dst[name+"_p50_ns"] = int64(lat.Quantile(0.50))
		dst[name+"_p95_ns"] = int64(lat.Quantile(0.95))
		dst[name+"_p99_ns"] = int64(lat.Quantile(0.99))
	}
}
