package core

import (
	"sync"
	"time"
)

// stripeBuf is the per-stripe scratch arena: one unit buffer per data
// disk and per parity, a view slice naming the bytes one operation
// moves and hands to the erasure code — ranges of the arena, or of the
// caller's own buffer where that saves a copy — and the error slots +
// WaitGroup used by the concurrent unit I/O fan-out. Arenas are recycled
// through the store's sync.Pool, so steady-state scrubbing, parity
// points, synchronous writes and degraded reads allocate nothing.
//
// Buffers come back with arbitrary contents; every user either fills
// them from disk, reconstructs into them (a full overwrite of the range
// it then reads), or explicitly zeroes them (the salvage path).
type stripeBuf struct {
	all   [][]byte // every unit of the stripe: data units by data index, then parity j at DataDisks()+j
	units [][]byte // all[:DataDisks()]
	par   [][]byte // all[DataDisks():]
	view  [][]byte // indexed like all: the bytes of each unit in play, nil for a unit that is not
	dst   [][]byte // indexed like units: where the caller wants a unit's bytes loaded (window), nil for the arena
	errs  []error  // one slot per fanned-out unit I/O, indexed like all
	wg    sync.WaitGroup
}

// window points the views at unit bytes [lo,hi) of the arena: every data
// unit — at dst[k] instead, where the caller has named a destination of
// the same length — and the parities in want.
func (sb *stripeBuf) window(want paritySet, lo, hi int64) {
	dd := len(sb.units)
	for k, u := range sb.all {
		switch {
		case k >= dd && !want.has(k-dd):
			sb.view[k] = nil
		case k < dd && sb.dst[k] != nil:
			sb.view[k] = sb.dst[k]
		default:
			sb.view[k] = u[lo:hi]
		}
	}
}

// getStripeBuf returns a stripe arena sized for the store's geometry.
func (s *Store) getStripeBuf() *stripeBuf {
	if v := s.sbPool.Get(); v != nil {
		return v.(*stripeBuf)
	}
	dd := s.geo.DataDisks()
	sb := &stripeBuf{
		all:  make([][]byte, s.geo.Disks),
		view: make([][]byte, s.geo.Disks),
		dst:  make([][]byte, dd),
		errs: make([]error, s.geo.Disks),
	}
	for i := range sb.all {
		sb.all[i] = make([]byte, s.geo.StripeUnit)
	}
	sb.units, sb.par = sb.all[:dd], sb.all[dd:]
	return sb
}

// putStripeBuf recycles an arena. The caller must not touch it after.
// The views and destinations may name a caller's buffer; the pool must
// not keep it alive.
func (s *Store) putStripeBuf(sb *stripeBuf) {
	clear(sb.view)
	clear(sb.dst)
	s.sbPool.Put(sb)
}

// ioReq is one device-unit read or write executed by the store's I/O
// workers. Completion is signalled through wg; the result lands in
// *errp, made visible to the waiter by the WaitGroup's happens-before
// edge.
type ioReq struct {
	write bool
	disk  int
	buf   []byte
	off   int64
	errp  *error
	wg    *sync.WaitGroup
}

func (s *Store) do(req ioReq) {
	if req.write {
		*req.errp = s.devWrite(req.disk, req.buf, req.off)
	} else {
		*req.errp = s.devRead(req.disk, req.buf, req.off)
	}
	req.wg.Done()
}

// ioWorker serves fanned-out unit I/O until the store stops.
func (s *Store) ioWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case req := <-s.ioCh:
			s.do(req)
		}
	}
}

// overlapWorth is the unit service time from which overlapping the unit
// I/Os of a stripe pays. Handing one to a worker wakes a goroutine, a few
// microseconds; a memory device (or a page-cache hit) moves a unit in
// about one, and a stripe's units are then moved fastest one after
// another by the goroutine that has them. A disk takes a hundred times
// the hand-off.
const overlapWorth = 10 * time.Microsecond

// overlaps reports whether the members are slow enough for hand-offs to
// pay, going by the last unit I/O timed.
func (s *Store) overlaps() bool { return s.unitNs.Load() >= int64(overlapWorth) }

// devAsync hands a unit read or write to an idle I/O worker, or performs
// it inline when none is free (including after Close) or when the
// members have been serving units too fast for a hand-off to pay: the
// send is non-blocking on an unbuffered channel, so a request is either
// picked up immediately or executed by the caller — never parked. This
// keeps the fan-out work-conserving and deadlock-free by construction.
func (s *Store) devAsync(req ioReq) {
	req.wg.Add(1)
	if s.overlaps() {
		select {
		case s.ioCh <- req:
			return
		default:
		}
	}
	s.do(req)
}

// doTimed performs the one unit I/O of a fan-out that the calling
// goroutine keeps for itself, and notes what it took for the next
// fan-out's devAsync calls. A store starts out assuming disks (Open).
func (s *Store) doTimed(req ioReq) {
	req.wg.Add(1)
	t := time.Now()
	s.do(req)
	s.unitNs.Store(int64(time.Since(t)))
}
