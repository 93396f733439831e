package bench

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"afraid/internal/core"
)

// modelService is the service time of one modelled device I/O: long
// against the ~0.1 ms a timed sleep overshoots (README.md, "The Go
// timer"), short enough that a window holds thousands of them.
const modelService = 2 * time.Millisecond

// modelDev gives a memory device a disk's shape: one I/O at a time,
// each taking a fixed service time, so the number of device I/Os on a
// request's critical path — not the host's memory bandwidth — sets its
// latency. What the sleeps really took is kept and reported as
// device.model_service_us, so timer drift between machines shows next
// to the numbers it shapes.
type modelDev struct {
	inner   core.BlockDevice
	service time.Duration
	on      atomic.Bool // off while the benchmark prefills and verifies

	mu       sync.Mutex // the device serves one I/O at a time
	realised []time.Duration
}

func newModelDev(inner core.BlockDevice, service time.Duration) *modelDev {
	return &modelDev{inner: inner, service: service}
}

// serve holds the device for one service time. Caller holds mu.
func (d *modelDev) serve() {
	if !d.on.Load() {
		return
	}
	t0 := time.Now()
	sleepFor(d.service)
	if len(d.realised) < 1<<14 {
		d.realised = append(d.realised, time.Since(t0))
	}
}

func (d *modelDev) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.serve()
	return d.inner.ReadAt(p, off)
}

func (d *modelDev) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.serve()
	return d.inner.WriteAt(p, off)
}

func (d *modelDev) Size() int64  { return d.inner.Size() }
func (d *modelDev) Close() error { return d.inner.Close() }

// realisedP50 is the median of the service times the sleeps took.
func realisedP50(devs []*modelDev) time.Duration {
	var all []time.Duration
	for _, d := range devs {
		d.mu.Lock()
		all = append(all, d.realised...)
		d.mu.Unlock()
	}
	if len(all) == 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all[len(all)/2]
}
