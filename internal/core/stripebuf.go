package core

import (
	"sync"
)

// stripeBuf is the per-stripe scratch arena: one unit buffer per data
// disk and per parity, a view slice for handing byte ranges of them to
// the erasure code without allocating, and the error slots + WaitGroup
// used by the concurrent unit-read fan-out. Arenas are recycled through
// the store's sync.Pool, so steady-state scrubbing, parity points,
// synchronous writes and degraded reads allocate nothing.
//
// Buffers come back with arbitrary contents; every user either fills
// them from disk, reconstructs into them (a full overwrite of the range
// it then reads), or explicitly zeroes them (the salvage path).
type stripeBuf struct {
	all   [][]byte // every unit of the stripe: data units by data index, then parity j at DataDisks()+j
	units [][]byte // all[:DataDisks()]
	par   [][]byte // all[DataDisks():]
	view  [][]byte // scratch: byte-range views of all, nil where a parity is not in use
	errs  []error  // one slot per fanned-out read, indexed like all
	wg    sync.WaitGroup
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
		errs: make([]error, s.geo.Disks),
	}
	for i := range sb.all {
		sb.all[i] = make([]byte, s.geo.StripeUnit)
	}
	sb.units, sb.par = sb.all[:dd], sb.all[dd:]
	return sb
}

// putStripeBuf recycles an arena. The caller must not touch it after.
func (s *Store) putStripeBuf(sb *stripeBuf) { s.sbPool.Put(sb) }

// ioReq is one device-unit read executed by the store's I/O workers.
// Completion is signalled through wg; the result lands in *errp, made
// visible to the waiter by the WaitGroup's happens-before edge.
type ioReq struct {
	disk int
	buf  []byte
	off  int64
	errp *error
	wg   *sync.WaitGroup
}

// ioWorker serves fanned-out unit reads until the store stops.
func (s *Store) ioWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case req := <-s.ioCh:
			*req.errp = s.devRead(req.disk, req.buf, req.off)
			req.wg.Done()
		}
	}
}

// devReadAsync hands a unit read to an idle I/O worker, or performs it
// inline when none is free (including after Close): the send is
// non-blocking on an unbuffered channel, so a request is either picked
// up immediately or executed by the caller — never parked. This keeps
// the fan-out work-conserving and deadlock-free by construction.
func (s *Store) devReadAsync(disk int, buf []byte, off int64, errp *error, wg *sync.WaitGroup) {
	wg.Add(1)
	select {
	case s.ioCh <- ioReq{disk: disk, buf: buf, off: off, errp: errp, wg: wg}:
	default:
		*errp = s.devRead(disk, buf, off)
		wg.Done()
	}
}
