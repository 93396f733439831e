package obs

import (
	"encoding/json"
	"net/http"
	"sync"
)

// Registry is a named collection of histograms and trace rings, one per
// instrumented layer (the server keeps one, the store keeps one). The
// lock guards only registration; recording goes straight to the
// lock-free histograms.
type Registry struct {
	mu       sync.Mutex
	hists    map[string]*Histogram
	rings    map[string]*Ring
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:    make(map[string]*Histogram),
		rings:    make(map[string]*Ring),
		counters: make(map[string]*Counter),
	}
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Ring returns the named trace ring, creating it with the given size on
// first use (later sizes are ignored).
func (r *Registry) Ring(name string, size int) *Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.rings[name]
	if g == nil {
		g = NewRing(size)
		r.rings[name] = g
	}
	return g
}

// Summaries snapshots every histogram in the registry.
func (r *Registry) Summaries() map[string]Summary {
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.Unlock()
	out := make(map[string]Summary, len(hists))
	for name, h := range hists {
		out[name] = h.Summary()
	}
	return out
}

// Traces snapshots every trace ring in the registry, oldest event
// first.
func (r *Registry) Traces() map[string][]Event {
	r.mu.Lock()
	rings := make(map[string]*Ring, len(r.rings))
	for name, g := range r.rings {
		rings[name] = g
	}
	r.mu.Unlock()
	out := make(map[string][]Event, len(rings))
	for name, g := range rings {
		out[name] = g.Events()
	}
	return out
}

// Section names one registry inside a multi-layer debug dump.
type Section struct {
	Name string
	Reg  *Registry
}

// HistogramHandler serves a JSON object mapping each section to its
// histogram summaries — the /debug/histograms endpoint.
func HistogramHandler(sections ...Section) http.Handler {
	return dumpHandler(sections, func(reg *Registry) any { return reg.Summaries() })
}

// TraceHandler serves a JSON object mapping each section to its
// recent trace events — the /debug/trace endpoint.
func TraceHandler(sections ...Section) http.Handler {
	return dumpHandler(sections, func(reg *Registry) any { return reg.Traces() })
}

func dumpHandler(sections []Section, dump func(*Registry) any) http.Handler {
	return JSONHandler(func() any {
		body := make(map[string]any, len(sections))
		for _, s := range sections {
			body[s.Name] = dump(s.Reg)
		}
		return body
	})
}

// JSONHandler serves whatever dump returns as indented JSON.
func JSONHandler(dump func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(dump()) // map keys marshal sorted, so output is stable
	})
}
