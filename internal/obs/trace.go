package obs

import (
	"sync"
	"time"
)

// Event is one traced operation on the live path. Phase durations are
// per-op aggregates: Queue is time spent waiting for a worker (server
// side), Lock is stripe-lock acquisition wait, Dev is time in device
// I/O, and Total is the end-to-end latency the caller saw. Phases a
// layer cannot see are left zero.
type Event struct {
	Seq   uint64        `json:"seq"`
	Op    string        `json:"op"`
	Off   int64         `json:"off"`
	Len   int64         `json:"len"`
	Start time.Time     `json:"start"`
	Queue time.Duration `json:"queue_ns,omitempty"`
	Lock  time.Duration `json:"lock_ns,omitempty"`
	Dev   time.Duration `json:"device_ns,omitempty"`
	Total time.Duration `json:"total_ns"`
	Err   string        `json:"err,omitempty"`
}

// Ring is a fixed-size buffer of the most recent trace events. Record
// takes a short mutex-guarded copy (no allocation after construction);
// at op rates the store path sustains, contention on it is negligible
// next to the device I/O each event describes.
type Ring struct {
	mu  sync.Mutex
	seq uint64
	buf []Event
}

// NewRing returns a ring holding the last size events (minimum 1).
func NewRing(size int) *Ring {
	if size < 1 {
		size = 1
	}
	return &Ring{buf: make([]Event, size)}
}

// Record appends one event, overwriting the oldest when full. The
// event's Seq field is assigned here.
func (r *Ring) Record(e Event) {
	r.mu.Lock()
	e.Seq = r.seq
	r.buf[r.seq%uint64(len(r.buf))] = e
	r.seq++
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	start := uint64(0)
	count := r.seq
	if r.seq > n {
		start = r.seq - n
		count = n
	}
	out := make([]Event, 0, count)
	for s := start; s < r.seq; s++ {
		out = append(out, r.buf[s%n])
	}
	return out
}
