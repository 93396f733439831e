package array

import (
	"time"

	"afraid/internal/sim"
	"afraid/internal/trace"
)

// RunTrace replays a trace against a fresh array built from cfg (open
// queueing: arrivals at trace timestamps regardless of completions,
// matching the paper's methodology) and returns the finalized metrics.
func RunTrace(cfg Config, tr *trace.Trace) (Metrics, error) {
	eng := sim.NewEngine()
	a, err := New(eng, cfg)
	if err != nil {
		return Metrics{}, err
	}
	for _, rec := range tr.Records {
		rec := rec
		eng.At(rec.Time, func() { a.Submit(rec) })
	}
	end := eng.Run()
	if d := tr.Duration(); d > end {
		end = d
	}
	return a.Metrics(end), nil
}

// RunNamed generates the named catalog workload with the given duration
// and seed, scaled to the array's capacity, and replays it.
func RunNamed(cfg Config, workload string, duration time.Duration, seed uint64) (Metrics, error) {
	p, err := trace.Lookup(workload, duration)
	if err != nil {
		return Metrics{}, err
	}
	if err := cfg.Geometry.Validate(); err != nil {
		return Metrics{}, err
	}
	tr, err := trace.Generate(p, cfg.Geometry.Capacity(), sim.NewRNG(seed))
	if err != nil {
		return Metrics{}, err
	}
	return RunTrace(cfg, tr)
}
