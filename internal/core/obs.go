package core

import (
	"time"

	"afraid/internal/obs"
)

// storeObs is the store's observability kit: per-phase latency
// histograms and a trace ring, all registered in one obs.Registry that
// cmd/afraidd serves under the "core" section of /debug/histograms.
// Recording is lock-free, so the instrumentation stays on permanently.
type storeObs struct {
	reg *obs.Registry

	lockWait     *obs.Histogram // stripe-lock acquisition wait, per span
	devRead      *obs.Histogram // device phase of one read span
	devWrite     *obs.Histogram // device phase of one write span
	parity       *obs.Histogram // in-memory parity compute (the stripe images report it)
	scrubStripe  *obs.Histogram // one stripe rebuild (lock wait included)
	scrubEpisode *obs.Histogram // one scrub episode (a run of rebuilds)
	csumVerify   *obs.Histogram // one checksummed unit read (slot I/O + CRC)
	fullStripe   *obs.Counter   // full-stripe writes to healthy stripes (writeImage)
	trace        *obs.Ring
}

func newStoreObs() *storeObs {
	r := obs.NewRegistry()
	return &storeObs{
		reg:          r,
		lockWait:     r.Histogram("stripe_lock_wait"),
		devRead:      r.Histogram("device_read"),
		devWrite:     r.Histogram("device_write"),
		parity:       r.Histogram("parity_compute"),
		scrubStripe:  r.Histogram("scrub_stripe"),
		scrubEpisode: r.Histogram("scrub_episode"),
		csumVerify:   r.Histogram("checksum_verify"),
		fullStripe:   r.Counter("full_stripe_writes"),
		trace:        r.Ring("ops", 512),
	}
}

// Obs returns the store's observability registry for mounting on a
// debug endpoint.
func (s *Store) Obs() *obs.Registry { return s.ob.reg }

// StatMap returns the store's flat key/value snapshot under "core."
// keys: every Stats field and obs counter, plus the array's identity
// and health. It is the stats method of server.Backend.
func (s *Store) StatMap() map[string]int64 {
	m := make(map[string]int64, 48)
	obs.Flatten(m, "core.", s.ob.reg, s.Stats(), struct {
		Mode        Mode
		StripeUnit  int64
		Disks       int
		DeadDisks   []int
		Quarantined int
	}{s.opts.Mode, s.geo.StripeUnit, s.geo.Disks, s.DeadDisks(), len(s.QuarantinedStripes())})
	return m
}

// traceOp records one completed client operation in the trace ring.
func (s *Store) traceOp(op string, off, n int64, start time.Time, lockWait, dev time.Duration, err error) {
	ev := obs.Event{
		Op:    op,
		Off:   off,
		Len:   n,
		Start: start,
		Lock:  lockWait,
		Dev:   dev,
		Total: time.Since(start),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	s.ob.trace.Record(ev)
}
