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
// layout.Geometry numbers, a run at a time: one member's units of
// consecutive stripes, back to back from off, where they are contiguous. A
// run of several stripes moves whole units; a run of one, a stripe's unit
// or any range inside it. An Array hands it every unit an Image loads or
// stores, the runs of several members at once from different goroutines,
// under the image's context; what a member is — a checksummed disk, a node
// behind a deadline — and what its errors cause stay behind it.
type Members interface {
	// ReadRun reads the run into units, skipping a nil one.
	ReadRun(ctx context.Context, member int, units [][]byte, off int64) error
	// WriteRun writes the run, which has no nil unit, as one write where
	// the member takes one.
	WriteRun(ctx context.Context, member int, units [][]byte, off int64) error
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
// writes and degraded reads allocate nothing — the client's clock, and the
// unit service time on it that decides whether the unit I/Os of a stripe
// overlap.
type Array struct {
	geo     layout.Geometry
	code    parity.Code
	now     func() time.Time    // the client's clock, the array's only time source
	observe func(time.Duration) // receives the time of every parity computation

	pool   sync.Pool    // *Image
	unitNs atomic.Int64 // what the last timed unit I/O took: decides whether hand-offs pay
}

// New returns an Array for the geometry that times on now. Every parity
// computation's duration goes to observe.
func New(geo layout.Geometry, now func() time.Time, observe func(time.Duration)) *Array {
	a := &Array{
		geo:     geo,
		code:    parity.Code(geo.Level.ParityUnits()),
		now:     now,
		observe: observe,
	}
	// Unit I/Os overlap while the members serve units slowly enough
	// (OverlapWorth); until it has timed one the array assumes so.
	a.unitNs.Store(int64(OverlapWorth))
	return a
}

// AllParities is the set of every parity of the array's code.
func (a *Array) AllParities() Parities { return Parities(1)<<a.code - 1 }

// ioReq is a member's read or write of a run. The result lands in *errp;
// one handed to a goroutine of its own signals completion through wg, whose
// happens-before edge makes the result visible to the waiter.
type ioReq struct {
	write  bool
	ctx    context.Context
	m      Members
	member int
	run    [][]byte
	off    int64
	errp   *error
	wg     *sync.WaitGroup
}

func (req *ioReq) do() {
	if req.write {
		*req.errp = req.m.WriteRun(req.ctx, req.member, req.run, req.off)
	} else {
		*req.errp = req.m.ReadRun(req.ctx, req.member, req.run, req.off)
	}
}

// handedOff is a fanned-out unit I/O: the body of its goroutine.
func (req ioReq) handedOff() {
	req.do()
	req.wg.Done()
}

// OverlapWorth is the unit service time from which overlapping the unit
// I/Os of a stripe pays. Handing one off starts a goroutine, a few
// microseconds; a memory device (or a page-cache hit) moves a unit in
// about one, and a stripe's units are then moved fastest one after
// another by the goroutine that has them. A disk or a node takes a hundred
// times the hand-off.
const OverlapWorth = 10 * time.Microsecond

// Overlaps reports whether the members are slow enough for hand-offs to
// pay, going by the last unit I/O timed.
func (a *Array) Overlaps() bool { return a.unitNs.Load() >= int64(OverlapWorth) }

// async performs a member's run on a goroutine of its own, or inline when
// the members have been serving units too fast for a hand-off to pay. A
// fan-out has one run per member, so it is that many goroutines for one
// member service time per stripe of the run.
func (a *Array) async(req *ioReq) {
	if a.Overlaps() {
		req.wg.Add(1)
		go req.handedOff()
		return
	}
	req.do()
}

// timed performs the one I/O of a fan-out that the calling goroutine keeps
// for itself, which moves that many units, and notes what it took per unit
// for the next fan-out's async calls.
func (a *Array) timed(req *ioReq, units int) {
	t := a.now()
	req.do()
	a.unitNs.Store(int64(a.now().Sub(t)) / int64(units))
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

	a     *Array
	m     Members
	ctx   context.Context
	view  [][]byte // indexed like All: the bytes of each unit in play, nil for a unit that is not
	off   []int64  // indexed like All: where in its unit a view starts
	held  []bool   // indexed like All: the unit's buffer holds what its member holds
	errs  []error  // one slot per member's run of a fan-out, indexed like All
	units [][]byte // the runs a fan-out from this image hands the members, back to back
	wg    sync.WaitGroup
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

// Load reads unit bytes [lo,hi) of the stripe into the image: every data
// unit whose member is not in skip, and the parities in want. Skipped
// buffers keep arbitrary contents.
func (im *Image) Load(skip Set, want Parities, lo, hi int64) error {
	im.window(want, lo, hi)
	return im.a.runIO(false, []*Image{im}, skip)
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
	if err := im.a.runIO(false, []*Image{im}, Set{}); err != nil {
		return err
	}
	t := im.a.now()
	for _, e := range sp.Extents {
		src := p[e.ArrOff-base : e.ArrOff-base+e.Len]
		for j, par := range im.Par {
			if sync.Has(j) {
				im.a.code.Update(j, par[e.UnitOff:e.UnitOff+e.Len], im.view[e.DataIdx], src, e.DataIdx)
			}
		}
		im.view[e.DataIdx], im.held[e.DataIdx] = src, false
	}
	im.a.observe(im.a.now().Sub(t))
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
	lost, used, ok := im.a.cover(im.Stripe, missing, fresh)
	if !ok {
		return 0, fmt.Errorf("%w: stripe %d", ErrDataLoss, im.Stripe)
	}
	if err := im.Load(missing, used, lo, hi); err != nil {
		return 0, err
	}
	if lost.Len() == 0 {
		return 0, nil
	}
	t := im.a.now()
	im.solve(lost)
	im.a.observe(im.a.now().Sub(t))
	k := len(im.Data)
	for j := range im.Par {
		im.held[k+j] = used.Has(j) && hi-lo == im.a.geo.StripeUnit
	}
	return used, nil
}

// cover returns the data units of the stripe on the members in missing,
// by data index, and the fewest parities of fresh not on a missing member
// that solve them, P first; ok is false when fresh cannot cover them.
func (a *Array) cover(stripe int64, missing Set, fresh Parities) (lost Set, used Parities, ok bool) {
	for _, d := range missing.List() {
		if role, idx := a.geo.RoleOf(stripe, d); role == layout.Data {
			lost.Add(idx, len(lost.d))
		} else {
			fresh &^= 1 << (role - layout.Parity)
		}
	}
	for j, need := 0, lost.Len(); need > 0; j++ {
		if j >= a.geo.Level.ParityUnits() {
			return lost, 0, false
		}
		if fresh.Has(j) {
			used |= 1 << j
			need--
		}
	}
	return lost, used, true
}

// solve computes the lost data units of a loaded image from the others
// and the parities in play.
func (im *Image) solve(lost Set) {
	k := len(im.Data)
	if !im.a.code.Solve(im.view[:k], lost.List(), im.view[k:]) {
		panic("stripe: erasure code refused a covered missing set")
	}
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
	t := im.a.now()
	im.a.code.Encode(im.view[k:], im.view[:k])
	im.a.observe(im.a.now().Sub(t))
}

// Check reports whether every parity of a wholly loaded image matches its
// data units.
func (im *Image) Check() bool { return im.a.code.Check(im.Par, im.Data) }

// Store writes the units in play — after Encode, all of them — to their
// members, except the ones on the members in skip and those held: the data
// units read and not laid over, and the parities a solve used while none was.
func (im *Image) Store(skip Set) error { return im.a.runIO(true, []*Image{im}, skip) }

// StoreRun stores the images of consecutive stripes, each encoded over a
// full-stripe span, with one Members.WriteRun per member: its units of the
// run back to back, which on a member are contiguous. Every one is
// attempted even after one fails. Returns every error, joined in member
// order.
func (a *Array) StoreRun(ims []*Image) error { return a.runIO(true, ims, Set{}) }

// LoadRun loads the images of consecutive stripes whole around the members
// in missing, which fresh[i], the parities fresh on ims[i], must cover,
// or it returns ErrDataLoss before any I/O. Every data unit is
// read where the image's Dst names — a whole-stripe read has the caller's
// buffer name them all — or into the image, and only a stripe with data on
// a missing member has parities read, the ones that solve it. Each other
// member gets one Members.ReadRun for its units of the run; then the
// missing units are solved in memory, stripe by stripe, with no second
// load. It reports how many stripes were solved. Every read is attempted
// even after one fails; an error is every one, joined in member order, and
// nothing is solved.
func (a *Array) LoadRun(ims []*Image, missing Set, fresh []Parities) (solved int, err error) {
	for i, im := range ims {
		_, used, ok := a.cover(im.Stripe, missing, fresh[i])
		if !ok {
			return 0, fmt.Errorf("%w: stripe %d", ErrDataLoss, im.Stripe)
		}
		im.window(used, 0, a.geo.StripeUnit)
	}
	if err := a.runIO(false, ims, missing); err != nil || missing.Len() == 0 {
		return 0, err
	}
	t := a.now()
	for i, im := range ims {
		if lost, _, _ := a.cover(im.Stripe, missing, fresh[i]); lost.Len() > 0 {
			im.solve(lost)
			solved++
		}
	}
	a.observe(a.now().Sub(t))
	return solved, nil
}

// runIO moves the units in play of the images of consecutive stripes — or
// of one image, each unit's window — with one Members.WriteRun or ReadRun
// per member not in skip: its units of the run back to back, contiguous on
// the member, nil where a unit is not in play, and writing, where it is
// held as its member holds it. The members' runs are fanned out in the
// order of the first image's units and overlap (Overlaps) — a run moves in
// about one member service time per stripe; one is kept back and done
// inline so the calling goroutine contributes instead of blocking. Every
// one is attempted even after one fails. Returns every error, joined in
// that order: a member that failed beside a unit error is one a repair of
// that unit must not solve across, and its caller has to learn of it too.
// A data unit read whole into its image's own buffer is held from then on
// (a parity read need not encode the data); a read forgets the other units,
// and a failed run every unit it had.
func (a *Array) runIO(write bool, ims []*Image, skip Set) error {
	im, n := ims[0], len(ims)
	units := slices.Grow(im.units[:0], len(im.All)*n)[:len(im.All)*n]
	clear(im.errs)
	inline, inlineUnits := ioReq{member: -1}, 0
	if !write {
		for _, x := range ims {
			clear(x.held)
		}
	}
	for i := range im.All {
		d := im.Member(i)
		if skip.Has(d) {
			continue
		}
		run, count := units[i*n:(i+1)*n], 0
		for j, x := range ims {
			k := i // the first image's unit on d
			if j > 0 {
				k = x.Slot(d)
			}
			u := x.view[k]
			if write && x.held[k] {
				u = nil
			}
			if run[j] = u; u != nil {
				count++
				x.held[k] = !write && k < len(x.Data) && len(u) == len(x.All[k]) && &u[0] == &x.All[k][0]
			}
		}
		if count == 0 {
			continue
		}
		req := ioReq{write: write, ctx: im.ctx, m: im.m, member: d, run: run, off: a.geo.DiskOffset(im.Stripe) + im.off[i], errp: &im.errs[i], wg: &im.wg}
		if inline.member < 0 {
			inline, inlineUnits = req, count
			continue
		}
		a.async(&req)
	}
	if inline.member >= 0 {
		a.timed(&inline, inlineUnits)
	}
	im.wg.Wait()
	for i, err := range im.errs {
		if err != nil {
			for _, x := range ims {
				x.held[x.Slot(im.Member(i))] = false
			}
		}
	}
	clear(units) // the image pool must not keep the caller's memory alive
	im.units = units
	return errors.Join(im.errs...)
}

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
	if solved = lo < hi; solved {
		for _, e := range sp.Extents {
			if e.UnitOff == lo && e.UnitOff+e.Len == hi {
				im.Dst[e.DataIdx] = p[e.ArrOff-base : e.ArrOff-base+e.Len]
			}
		}
		if _, err := im.Solve(missing, fresh, lo, hi); err != nil {
			return false, err
		}
	}
	clear(im.view)
	for _, e := range sp.Extents {
		dst := p[e.ArrOff-base : e.ArrOff-base+e.Len]
		switch {
		case !solved || e.UnitOff < lo || e.UnitOff+e.Len > hi:
			im.view[e.DataIdx], im.off[e.DataIdx] = dst, e.UnitOff
		case im.Dst[e.DataIdx] == nil:
			copy(dst, im.Data[e.DataIdx][e.UnitOff:])
		}
	}
	if err := im.a.runIO(false, []*Image{im}, Set{}); err != nil {
		return false, err
	}
	return solved, nil
}
