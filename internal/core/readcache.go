package core

import (
	"sync"
	"sync/atomic"
	"time"

	"afraid/internal/cache"
	"afraid/internal/layout"
	"afraid/internal/stripe"
)

// The controller read cache (DESIGN §7 *Read cache*): the paper's array
// serves re-reads from a 256 KB controller cache, and so does the store
// once its members are slower than a memory copy. It is a write-through
// cache of client stripe units — unit u is client bytes [u·unit,
// (u+1)·unit) — each valid sector by sector, evicted by the simulator's
// LRU (internal/cache). request consults it under a span's stripe locks,
// which every change to a unit's bytes in the array also holds, so a read
// served from memory is ordered with the writes of its stripe like any
// other:
//
//   - engage: units are admitted only while the last two member reads
//     each took stripe.OverlapWorth or more per unit, as request timed
//     them, and only by a request smaller than the cache on a whole array
//     — no member absent or stale;
//   - admit: a unit is admitted on its second touch by an admitting read
//     or write, a ghost list as long as the cache remembering the first;
//     it then holds the sectors that request's bytes cover whole;
//   - serve: a read whose every byte is cached is copied from memory;
//   - coherence: a write that lands refreshes every unit it touches that
//     is cached, before it is acked, whatever its size; one that fails
//     drops them, as does a salvage's zeroes (writeBack). FailDisk, a
//     repair and any reported loss drop the whole cache, and a drop
//     cancels the admissions of requests that began before it — so a
//     degraded array holds nothing to serve, and loss is reported exactly
//     as the members report it.
//
// A hit returns bytes the store verified on their way in from a member or
// that a client wrote. Over members as fast as memory no unit is ever
// admitted, so a read looks at an empty cache and a write refreshes
// nothing.

// readCache is a store's controller read cache.
type readCache struct {
	unit   int64 // bytes per cached unit: the stripe unit
	sector int64 // bytes per valid bit: at least 512, at most 64 per unit

	mu    sync.Mutex // guards the LRUs, buf and valid
	units *cache.LRU // the cached units; a unit's index names its buffer and valid bits
	ghost *cache.LRU // units touched once by an admitting request
	buf   []byte     // one unit buffer per index
	valid []uint64   // per index, the sectors its buffer holds

	held     atomic.Int32  // units cached; zero means nothing to serve, refresh or drop
	epoch    atomic.Uint64 // drops of the whole cache
	lastSlow atomic.Bool   // the last timed member read took OverlapWorth or more per unit
	slow     atomic.Bool   // and so did the one before it: the cache admits
}

// readCacheBytes is the cache's size: the paper's 256 KB, the simulator's.
var readCacheBytes = cache.DefaultConfig().ReadBytes

// newReadCache returns the read cache of a store with the given stripe
// unit, or nil when a unit does not fit in it.
func newReadCache(unit int64) *readCache {
	n := readCacheBytes / unit
	if n < 1 {
		return nil
	}
	sector := max(unit/64, 512)
	if unit%sector != 0 {
		sector = unit
	}
	return &readCache{
		unit:   unit,
		sector: sector,
		units:  cache.NewLRU(int(n)),
		ghost:  cache.NewLRU(int(n)),
		buf:    make([]byte, n*unit),
		valid:  make([]uint64, n),
	}
}

// cacheOp is what one request may do with the read cache, decided before
// its first span.
type cacheOp struct {
	read   bool   // a read small enough to be served from memory
	admit  bool   // its units may be admitted (see the engage rule)
	epoch  uint64 // the cache's when admit was decided: a drop since cancels it
	missed bool   // a span of the read went to the members
}

// cacheOp decides a request's cacheOp: a read or write of n bytes.
func (s *Store) cacheOp(write bool, n int) (co cacheOp) {
	c := s.rc
	if c == nil || int64(n) >= readCacheBytes {
		return co
	}
	co.epoch = c.epoch.Load()
	co.admit = c.slow.Load() && s.whole()
	co.read = !write && (co.admit || c.held.Load() > 0)
	return co
}

// unitRange is the part of one cached unit a span's extent covers: client
// unit u, bytes [lo, hi) of it, at client address arr.
type unitRange struct{ u, lo, hi, arr int64 }

// each calls fn with every unit range of held's extents, in order, until fn
// returns false, and reports whether it never did. An extent is inside one
// unit, bar a fold's (foldRun), which runs on through the next.
func (c *readCache) each(held []layout.StripeSpan, fn func(r unitRange) bool) bool {
	for _, sp := range held {
		for _, e := range sp.Extents {
			for a, end := e.ArrOff, e.ArrOff+e.Len; a < end; {
				u := a / c.unit
				r := unitRange{u: u, lo: a - u*c.unit, hi: min(end-u*c.unit, c.unit), arr: a}
				if !fn(r) {
					return false
				}
				a = u*c.unit + r.hi
			}
		}
	}
	return true
}

// sectors returns the valid bits of the sectors [lo, hi) touches at all
// (touched) and of those it covers whole (whole).
func (c *readCache) sectors(lo, hi int64) (touched, whole uint64) {
	bits := func(first, last int64) uint64 { // first..last, 0 when last < first
		if last < first {
			return 0
		}
		return 2<<uint(last) - 1<<uint(first)
	}
	return bits(lo/c.sector, (hi-1)/c.sector), bits((lo+c.sector-1)/c.sector, hi/c.sector-1)
}

// window is the buffer bytes of index i that r covers.
func (c *readCache) window(i int, r unitRange) []byte {
	at := int64(i) * c.unit
	return c.buf[at+r.lo : at+r.hi]
}

// serve copies held's bytes into p (client address base) if every one of
// them is cached, and reports whether it did. Caller holds held's stripe
// locks.
func (c *readCache) serve(p []byte, base int64, held []layout.StripeSpan) bool {
	if c.held.Load() == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cached := c.each(held, func(r unitRange) bool {
		touched, _ := c.sectors(r.lo, r.hi)
		i := c.units.Index(r.u)
		return i >= 0 && c.valid[i]&touched == touched
	})
	if cached {
		c.each(held, func(r unitRange) bool {
			c.units.Insert(r.u) // promote
			copy(p[r.arr-base:], c.window(c.units.Index(r.u), r))
			return true
		})
	}
	return cached
}

// fill brings held's cached units up to date with p once held's member
// I/O has succeeded: a write's bytes that landed, or a read's that the
// members returned. Where co admits, a unit touched for the second time is
// admitted too. Caller holds held's stripe locks.
func (c *readCache) fill(co *cacheOp, p []byte, base int64, held []layout.StripeSpan) {
	if c == nil || !co.admit && c.held.Load() == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	admit := co.admit && c.epoch.Load() == co.epoch
	c.each(held, func(r unitRange) bool {
		i := c.units.Index(r.u)
		switch {
		case i >= 0:
			c.units.Insert(r.u) // promote
		case !admit:
			return true
		case c.ghost.Index(r.u) < 0:
			c.ghost.Insert(r.u)
			return true
		default:
			c.ghost.Invalidate(r.u)
			c.units.Insert(r.u)
			i = c.units.Index(r.u)
			c.valid[i] = 0
			c.held.Store(int32(c.units.Len()))
		}
		_, whole := c.sectors(r.lo, r.hi)
		copy(c.window(i, r), p[r.arr-base:])
		c.valid[i] |= whole
		return true
	})
}

// drop forgets held's units: a write to them failed, or laid zeroes over
// them. Caller holds held's stripe locks.
func (c *readCache) drop(held []layout.StripeSpan) {
	if c == nil || c.held.Load() == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.each(held, func(r unitRange) bool {
		c.units.Invalidate(r.u)
		return true
	})
	c.held.Store(int32(c.units.Len()))
}

// dropAll empties the cache and cancels the admissions of the requests
// under way.
func (c *readCache) dropAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch.Add(1)
	c.units.Reset()
	c.ghost.Reset()
	c.held.Store(0)
}

// timed notes what a member read of held took, d under its locks: the
// engage rule's measure. Requests on every processor time their reads, so
// a flag is stored only when it changes.
func (c *readCache) timed(d time.Duration, held []layout.StripeSpan) {
	if c == nil {
		return
	}
	var units int64
	c.each(held, func(unitRange) bool { units++; return true })
	slow := d >= time.Duration(units)*stripe.OverlapWorth
	engaged := slow && c.lastSlow.Load()
	if c.lastSlow.Load() != slow {
		c.lastSlow.Store(slow)
	}
	if c.slow.Load() != engaged {
		c.slow.Store(engaged)
	}
}
