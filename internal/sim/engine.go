// Package sim provides a deterministic discrete-event simulation engine,
// pseudo-random number generation, probability distributions, and the
// statistics accumulators used throughout the AFRAID reproduction.
//
// The engine models virtual time as a time.Duration offset from the start
// of the simulation. Events are closures scheduled for a particular
// virtual time; the engine executes them in time order, breaking ties by
// scheduling order so that runs are fully deterministic for a fixed seed.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event func()

// event is an entry in the engine's pending-event heap.
type event struct {
	at   time.Duration // virtual time the event fires
	seq  uint64        // tie-breaker: insertion order
	fn   Event
	dead bool // cancelled
}

// eventHeap implements heap.Interface ordered by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	e *event
}

// Stop cancels the timer. It reports whether the event had not yet fired
// (and was therefore actually cancelled). Stopping an already-fired,
// currently-firing, or already-stopped timer is a no-op that reports
// false — in particular, a callback calling Stop on its own timer gets
// false, because that firing can no longer be prevented. Callers that
// re-arm timers must therefore not rely on Stop alone to keep a stale
// callback from running; guard the callback with a generation check.
func (t *Timer) Stop() bool {
	if t == nil || t.e == nil || t.e.dead {
		return false
	}
	t.e.dead = true
	return true
}

// Engine is a discrete-event simulator. The zero value is not usable;
// call NewEngine.
type Engine struct {
	now     time.Duration
	seq     uint64
	pending eventHeap
	steps   uint64
	// MaxSteps bounds the number of events executed by Run as a runaway
	// guard; zero means no bound.
	MaxSteps uint64
}

// NewEngine returns an engine with virtual time zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) panics: it always indicates a model bug.
func (e *Engine) At(t time.Duration, fn Event) *Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.pending, ev)
	return &Timer{e: ev}
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn Event) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Step executes the single earliest pending event, advancing virtual time
// to its timestamp. It reports false when no events remain.
func (e *Engine) Step() bool {
	for e.pending.Len() > 0 {
		ev := heap.Pop(&e.pending).(*event)
		if ev.dead {
			continue
		}
		// The event is committed to run: mark it dead before the
		// callback so a Stop issued from inside fn (or anything it
		// calls) reports false instead of claiming a cancellation that
		// never happened.
		ev.dead = true
		e.now = ev.at
		e.steps++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until none remain (or MaxSteps is hit). It returns
// the final virtual time.
func (e *Engine) Run() time.Duration {
	for e.Step() {
		if e.MaxSteps != 0 && e.steps >= e.MaxSteps {
			panic(fmt.Sprintf("sim: exceeded MaxSteps=%d at t=%v", e.MaxSteps, e.now))
		}
	}
	return e.now
}
