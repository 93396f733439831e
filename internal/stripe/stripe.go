// Package stripe is the mechanics of one stripe of a parity array: the
// k data units and m parity units that live, one each, on k+m members.
// Every stripe operation of the paper and its RAID relatives — parity
// rebuild, degraded read, read-modify-write, reconstruct-write,
// full-stripe write, heal, verify — is the same load → solve or encode →
// store over those units, and differs only in which of them are in hand.
// An Image is one stripe's units in memory and the moves between them and
// the members; an Array holds what the images of one array share. Which
// move to make, when to mark, what a missing member means and what to do
// about an error are the client's: core.Store runs its members on an
// Array, disks and cluster nodes alike.
package stripe

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"afraid/internal/layout"
	"afraid/internal/parity"
)

// Members moves unit bytes between memory and the array's members, which
// layout.Geometry numbers. An Array hands it every unit an Image loads or
// stores, several at once from different goroutines, under the image's
// context; what a member is — a checksummed disk, a node behind a deadline
// — and what its errors cause stay behind it.
type Members interface {
	ReadUnit(ctx context.Context, member int, p []byte, off int64) error
	WriteUnit(ctx context.Context, member int, p []byte, off int64) error
}

// ErrDataLoss marks bytes that are unrecoverable: they lived on a missing
// member in a stripe without fresh parity enough to solve them — one
// unredundant when the member went (the AFRAID exposure window), or never
// redundant.
var ErrDataLoss = errors.New("stripe: data lost (missing member in unprotected stripe)")

// Parities is a set of a stripe's parity units: bit j is parity j
// (0 = P, 1 = Q).
type Parities uint8

// Has reports whether parity j is in the set.
func (ps Parities) Has(j int) bool { return ps&(1<<j) != 0 }

// Set is a small fixed-capacity set of members, in insertion order: the
// members that have failed, grown by unit repair with the ones it finds
// corrupt. A value, so a snapshot is stable for as long as it is used.
type Set struct {
	n int
	d [2]int
}

// List returns the members in insertion order, aliasing the set.
func (f *Set) List() []int { return f.d[:f.n] }

// Len returns the number of members.
func (f Set) Len() int { return f.n }

// Has reports whether d is a member.
func (f Set) Has(d int) bool {
	for _, x := range f.List() {
		if x == d {
			return true
		}
	}
	return false
}

// Add inserts d and reports whether it did: not when d is already a
// member or the set holds limit members (at most two).
func (f *Set) Add(d, limit int) bool {
	if f.n >= limit || f.Has(d) {
		return false
	}
	f.d[f.n] = d
	f.n++
	return true
}

// Remove deletes d if it is a member.
func (f *Set) Remove(d int) {
	for i, x := range f.List() {
		if x == d {
			copy(f.d[i:], f.d[i+1:f.n])
			f.n--
			return
		}
	}
}

// Array is what the stripe images of one array share: its geometry and
// erasure code (m = the level's parity units), the pool images are
// recycled through — so steady-state scrubbing, parity points, synchronous
// writes and degraded reads allocate nothing — and the unit service time
// that decides whether the unit I/Os of a stripe overlap.
type Array struct {
	geo     layout.Geometry
	code    parity.Code
	observe func(time.Duration) // receives the time of every parity computation

	pool   sync.Pool    // *Image
	unitNs atomic.Int64 // what the last timed unit I/O took: decides whether hand-offs pay
}

// New returns an Array for the geometry. Every parity computation's
// duration goes to observe.
func New(geo layout.Geometry, observe func(time.Duration)) *Array {
	a := &Array{
		geo:     geo,
		code:    parity.Code(geo.Level.ParityUnits()),
		observe: observe,
	}
	// Unit I/Os overlap while the members serve units slowly enough
	// (overlapWorth); until it has timed one the array assumes so.
	a.unitNs.Store(int64(overlapWorth))
	return a
}

// AllParities is the set of every parity of the array's code.
func (a *Array) AllParities() Parities { return Parities(1)<<a.code - 1 }

// ioReq is one unit read or write. The result lands in *errp; one handed
// to a goroutine of its own signals completion through wg, whose
// happens-before edge makes the result visible to the waiter.
type ioReq struct {
	write  bool
	ctx    context.Context
	m      Members
	member int
	buf    []byte
	off    int64
	errp   *error
	wg     *sync.WaitGroup
}

func (req *ioReq) do() {
	if req.write {
		*req.errp = req.m.WriteUnit(req.ctx, req.member, req.buf, req.off)
	} else {
		*req.errp = req.m.ReadUnit(req.ctx, req.member, req.buf, req.off)
	}
}

// handedOff is a fanned-out unit I/O: the body of its goroutine.
func (req ioReq) handedOff() {
	req.do()
	req.wg.Done()
}

// overlapWorth is the unit service time from which overlapping the unit
// I/Os of a stripe pays. Handing one off starts a goroutine, a few
// microseconds; a memory device (or a page-cache hit) moves a unit in
// about one, and a stripe's units are then moved fastest one after
// another by the goroutine that has them. A disk or a node takes a hundred
// times the hand-off.
const overlapWorth = 10 * time.Microsecond

// Overlaps reports whether the members are slow enough for hand-offs to
// pay, going by the last unit I/O timed.
func (a *Array) Overlaps() bool { return a.unitNs.Load() >= int64(overlapWorth) }

// async performs a unit read or write on a goroutine of its own, or
// inline when the members have been serving units too fast for a hand-off
// to pay. A stripe has at most one unit per member, so a fan-out is that
// many goroutines for one member service time.
func (a *Array) async(req *ioReq) {
	if a.Overlaps() {
		req.wg.Add(1)
		go req.handedOff()
		return
	}
	req.do()
}

// timed performs the one unit I/O of a fan-out that the calling goroutine
// keeps for itself, and notes what it took for the next fan-out's async
// calls.
func (a *Array) timed(req *ioReq) {
	t := time.Now()
	req.do()
	a.unitNs.Store(int64(time.Since(t)))
}

// Image is one stripe in memory: a unit buffer per data unit and per
// parity, and views naming the bytes of each unit that the next load,
// solve, encode or store moves — ranges of those buffers, or of the
// caller's own where that saves a copy. Get binds it to a stripe and the
// members and the context to move it through; Release recycles it.
//
// Buffers come back with arbitrary contents; every user either fills them
// from the members, solves into them (a full overwrite of the range it
// then reads), or lays bytes over them (Encode). held tells Store which
// units match their members' already.
type Image struct {
	Stripe int64
	All    [][]byte // every unit: data units by data index, then parity j at len(Data)+j
	Data   [][]byte // All[:k]
	Par    [][]byte // All[k:]
	// Dst, indexed like Data, names where the caller has (full-stripe
	// write) or wants (degraded read) a data unit's bytes instead of in
	// the image's own buffer. It must be as long as the range moved.
	Dst [][]byte

	a    *Array
	m    Members
	ctx  context.Context
	view [][]byte // indexed like All: the bytes of each unit in play, nil for a unit that is not
	off  []int64  // indexed like All: where in its unit a view starts
	held []bool   // indexed like All: the unit's buffer holds what its member holds
	errs []error  // one slot per fanned-out unit I/O, indexed like All
	wg   sync.WaitGroup
}

// Get returns an image of the stripe, to be moved through m under ctx.
func (a *Array) Get(ctx context.Context, m Members, stripe int64) *Image {
	im, _ := a.pool.Get().(*Image)
	if im == nil {
		k := a.geo.DataDisks()
		im = &Image{
			a:    a,
			All:  make([][]byte, a.geo.Disks),
			Dst:  make([][]byte, k),
			view: make([][]byte, a.geo.Disks),
			off:  make([]int64, a.geo.Disks),
			held: make([]bool, a.geo.Disks),
			errs: make([]error, a.geo.Disks),
		}
		for i := range im.All {
			im.All[i] = make([]byte, a.geo.StripeUnit)
		}
		im.Data, im.Par = im.All[:k], im.All[k:]
	}
	im.m, im.ctx, im.Stripe = m, ctx, stripe
	return im
}

// Release recycles the image. The caller must not touch it after. The
// views, destinations, members and context may name a caller's memory;
// the pool must not keep it alive.
func (im *Image) Release() {
	clear(im.view)
	clear(im.Dst)
	clear(im.held)
	im.m, im.ctx = nil, nil
	im.a.pool.Put(im)
}

// Member returns the member holding unit k of the stripe (k as in All).
func (im *Image) Member(k int) int {
	switch j := k - len(im.Data); {
	case j < 0:
		return im.a.geo.DataDisk(im.Stripe, k)
	case j == 0:
		return im.a.geo.ParityDisk(im.Stripe)
	default:
		return im.a.geo.QDisk(im.Stripe)
	}
}

// Slot is the inverse of Member: the index in All of member d's unit.
func (im *Image) Slot(d int) int {
	role, idx := im.a.geo.RoleOf(im.Stripe, d)
	if role == layout.Data {
		return idx
	}
	return len(im.Data) + int(role-layout.Parity)
}

// window puts unit bytes [lo,hi) in play: of every data unit — at Dst[k]
// instead, where the caller has named a destination — and of the parities
// in want.
func (im *Image) window(want Parities, lo, hi int64) {
	k := len(im.Data)
	for i, u := range im.All {
		switch {
		case i >= k && !want.Has(i-k):
			im.view[i] = nil
		case i < k && im.Dst[i] != nil:
			im.view[i] = im.Dst[i]
		default:
			im.view[i] = u[lo:hi]
		}
		im.off[i] = lo
	}
}

// io reads or writes the bytes every view names, except the units on the
// members in skip and, writing, the units held as their members hold them.
// The units live on distinct members, so the operations are fanned out to
// goroutines and overlap — a whole stripe moves in about one member
// service time; one is kept back and done inline so the calling goroutine
// contributes instead of blocking. Every one is attempted even after one
// fails. Returns the first error in All order. A data unit read whole
// into its own buffer is held from then on (a parity read need not encode
// the data); a read forgets the other units.
func (im *Image) io(write bool, skip Set) error {
	base := im.a.geo.DiskOffset(im.Stripe)
	clear(im.errs)
	inline := ioReq{member: -1}
	for i, u := range im.view {
		if !write {
			im.held[i] = false
		}
		if u == nil || (write && im.held[i]) {
			continue
		}
		d := im.Member(i)
		if skip.Has(d) {
			continue
		}
		im.held[i] = !write && i < len(im.Data) && len(u) == len(im.All[i]) && &u[0] == &im.All[i][0]
		req := ioReq{write: write, ctx: im.ctx, m: im.m, member: d, buf: u, off: base + im.off[i], errp: &im.errs[i], wg: &im.wg}
		if inline.member < 0 {
			inline = req
			continue
		}
		im.a.async(&req)
	}
	if inline.member >= 0 {
		im.a.timed(&inline)
	}
	im.wg.Wait()
	var first error
	for i, err := range im.errs {
		if err != nil {
			im.held[i] = false
			first = cmp.Or(first, err)
		}
	}
	return first
}

// Load reads unit bytes [lo,hi) of the stripe into the image: every data
// unit whose member is not in skip, and the parities in want. Skipped
// buffers keep arbitrary contents.
func (im *Image) Load(skip Set, want Parities, lo, hi int64) error {
	im.window(want, lo, hi)
	return im.io(false, skip)
}

// Update is the read half of a span's read-modify-write: it reads, in one
// fan-out, the bytes each extent overwrites and the parities in sync over
// the union of their ranges, then folds every extent's delta into those
// parities — par ^= coef(idx) * (old ^ new), new from the caller's buffer.
// Nothing is written: Store then writes the extents, from the caller's
// buffer, and the folded parities, so a caller can put a step between the
// span's reads and its first write.
func (im *Image) Update(p []byte, base int64, sp layout.StripeSpan, sync Parities) error {
	k := len(im.Data)
	lo, hi := im.a.geo.StripeUnit, int64(0)
	clear(im.view)
	for _, e := range sp.Extents {
		im.view[e.DataIdx], im.off[e.DataIdx] = im.Data[e.DataIdx][e.UnitOff:e.UnitOff+e.Len], e.UnitOff
		lo, hi = min(lo, e.UnitOff), max(hi, e.UnitOff+e.Len)
	}
	for j, par := range im.Par {
		if sync.Has(j) {
			im.view[k+j], im.off[k+j] = par[lo:hi], lo
		}
	}
	if err := im.io(false, Set{}); err != nil {
		return err
	}
	t := time.Now()
	for _, e := range sp.Extents {
		src := p[e.ArrOff-base : e.ArrOff-base+e.Len]
		for j, par := range im.Par {
			if sync.Has(j) {
				im.a.code.Update(j, par[e.UnitOff:e.UnitOff+e.Len], im.view[e.DataIdx], src, e.DataIdx)
			}
		}
		im.view[e.DataIdx], im.held[e.DataIdx] = src, false
	}
	im.a.observe(time.Since(t))
	return nil
}

// Solve loads unit bytes [lo,hi) of every data unit of the stripe —
// straight into Dst[k], for the units the caller names a destination for:
// survivors are read, and the data units on missing members (at most as
// many as there are parities) are solved from the fresh parities that are
// not missing themselves. When those cannot cover the missing units — the
// data-loss case — it returns ErrDataLoss before any I/O. It reports the
// parities the solve used: by construction they encode the loaded image
// exactly, which no other parity of a torn stripe is known to, so the image
// holds them as their members do.
func (im *Image) Solve(missing Set, fresh Parities, lo, hi int64) (used Parities, err error) {
	k := len(im.Data)
	var lostBuf [len(missing.d)]int
	lost := lostBuf[:0]
	for _, d := range missing.List() {
		if i := im.Slot(d); i < k {
			lost = append(lost, i)
		} else {
			fresh &^= 1 << (i - k)
		}
	}
	// Use the fewest parities that cover the lost units, P first.
	for j, need := 0, len(lost); need > 0; j++ {
		if j >= len(im.Par) {
			return 0, fmt.Errorf("%w: stripe %d", ErrDataLoss, im.Stripe)
		}
		if fresh.Has(j) {
			used |= 1 << j
			need--
		}
	}
	if err := im.Load(missing, used, lo, hi); err != nil {
		return 0, err
	}
	if len(lost) == 0 {
		return 0, nil
	}
	t := time.Now()
	ok := im.a.code.Solve(im.view[:k], lost, im.view[k:])
	im.a.observe(time.Since(t))
	if !ok {
		panic("stripe: erasure code refused a covered missing set")
	}
	for j := range im.Par {
		im.held[k+j] = used.Has(j) && hi-lo == im.a.geo.StripeUnit
	}
	return used, nil
}

// Encode lays sp's extents over the data units, no longer held — the bytes
// of p (first at array offset base; a whole unit named by Dst, not copied),
// or zeroes where p is nil — then, unless every parity is held, computes
// them all from the whole data units into Par, and leaves every unit in
// play for Store.
func (im *Image) Encode(p []byte, base int64, sp layout.StripeSpan) {
	k := len(im.Data)
	for _, e := range sp.Extents {
		u := im.Data[e.DataIdx][e.UnitOff : e.UnitOff+e.Len]
		switch {
		case p == nil:
			clear(u)
		case e.Len == im.a.geo.StripeUnit:
			im.Dst[e.DataIdx] = p[e.ArrOff-base : e.ArrOff-base+e.Len]
		default:
			copy(u, p[e.ArrOff-base:])
		}
		im.held[e.DataIdx] = false
		clear(im.held[k:])
	}
	im.window(im.a.AllParities(), 0, im.a.geo.StripeUnit)
	if !slices.Contains(im.held[k:], false) {
		return // every parity is one the solve used: it encodes the image already
	}
	t := time.Now()
	im.a.code.Encode(im.view[k:], im.view[:k])
	im.a.observe(time.Since(t))
}

// Check reports whether every parity of a wholly loaded image matches its
// data units.
func (im *Image) Check() bool { return im.a.code.Check(im.Par, im.Data) }

// Store writes the units in play — after Encode, all of them — to their
// members, except the ones on the members in skip and those held: the data
// units read and not laid over, and the parities a solve used while none was.
func (im *Image) Store(skip Set) error { return im.io(true, skip) }

// ReadSpan reads a span's extents into the caller's buffer, overlapped.
// Extents on missing members are solved from the fresh parities, and it
// reports whether any were: only the byte range of those extents is
// solved, so a small degraded read moves a small range of every survivor,
// not whole units — and each survivor moves once: an extent that is
// exactly the range is read, or solved, where the caller wants it, one
// inside the range is copied out of the image, and only one that reaches
// past it is read on its own.
func (im *Image) ReadSpan(p []byte, base int64, sp layout.StripeSpan, missing Set, fresh Parities) (solved bool, err error) {
	lo, hi := im.a.geo.StripeUnit, int64(0)
	for _, e := range sp.Extents {
		if missing.Has(e.Disk) {
			lo, hi = min(lo, e.UnitOff), max(hi, e.UnitOff+e.Len)
		}
	}
	if lo >= hi {
		clear(im.view)
		for _, e := range sp.Extents {
			im.view[e.DataIdx], im.off[e.DataIdx] = p[e.ArrOff-base:e.ArrOff-base+e.Len], e.UnitOff
		}
		return false, im.io(false, Set{})
	}
	for _, e := range sp.Extents {
		if e.UnitOff == lo && e.UnitOff+e.Len == hi {
			im.Dst[e.DataIdx] = p[e.ArrOff-base : e.ArrOff-base+e.Len]
		}
	}
	if _, err := im.Solve(missing, fresh, lo, hi); err != nil {
		return false, err
	}
	for _, e := range sp.Extents {
		dst := p[e.ArrOff-base : e.ArrOff-base+e.Len]
		switch {
		case im.Dst[e.DataIdx] != nil:
		case lo <= e.UnitOff && e.UnitOff+e.Len <= hi:
			copy(dst, im.Data[e.DataIdx][e.UnitOff:])
		default:
			if err := im.m.ReadUnit(im.ctx, e.Disk, dst, e.DiskOff); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}
