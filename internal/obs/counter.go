package obs

import "sync/atomic"

// Counter is a monotonically increasing event count — the scalar
// sibling of Histogram for events whose *number* matters but whose
// latency does not (hedge fires, retries, quarantines). Lock-free like
// the histograms: recording is a single atomic add.
type Counter struct {
	n atomic.Uint64
}

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Adopt registers instruments of another registry — *Histogram and
// *Counter values — under names of this one, so a layer can publish what
// the layer below it counts under its own names.
func (r *Registry) Adopt(named map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, in := range named {
		switch in := in.(type) {
		case *Histogram:
			r.hists[name] = in
		case *Counter:
			r.counters[name] = in
		}
	}
}

// Counters snapshots every counter in the registry.
func (r *Registry) Counters() map[string]uint64 {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	r.mu.Unlock()
	out := make(map[string]uint64, len(counters))
	for name, c := range counters {
		out[name] = c.Value()
	}
	return out
}
