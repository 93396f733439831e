package stripe

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/layout"
)

const testUnit = 64

// fakeMembers is a member set in memory that counts what is moved, per
// member, and fails the members it is told to — after counting the
// attempt.
type fakeMembers struct {
	disks         [][]byte
	ops           []atomic.Int64
	read, written []atomic.Int64 // bytes
	fail          map[int]error
}

func newFake(geo layout.Geometry) *fakeMembers {
	f := &fakeMembers{
		disks:   make([][]byte, geo.Disks),
		ops:     make([]atomic.Int64, geo.Disks),
		read:    make([]atomic.Int64, geo.Disks),
		written: make([]atomic.Int64, geo.Disks),
	}
	for i := range f.disks {
		f.disks[i] = make([]byte, geo.DiskSize)
	}
	return f
}

func (f *fakeMembers) ReadUnit(_ context.Context, d int, p []byte, off int64) error {
	f.ops[d].Add(1)
	if err := f.fail[d]; err != nil {
		return err
	}
	f.read[d].Add(int64(len(p)))
	copy(p, f.disks[d][off:])
	return nil
}

func (f *fakeMembers) WriteUnit(_ context.Context, d int, p []byte, off int64) error {
	f.ops[d].Add(1)
	if err := f.fail[d]; err != nil {
		return err
	}
	f.written[d].Add(int64(len(p)))
	copy(f.disks[d][off:], p)
	return nil
}

func (f *fakeMembers) reset() {
	for d := range f.disks {
		f.ops[d].Store(0)
		f.read[d].Store(0)
		f.written[d].Store(0)
	}
}

// gfMul multiplies in GF(2^8) mod x^8+x^4+x^3+x^2+1, a bit at a time.
func gfMul(a, b byte) (p byte) {
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a&0x80 != 0
		a <<= 1
		if carry {
			a ^= 0x1d
		}
	}
	return p
}

// refParity is the byte-serial reference: P = sum d_i, Q = sum 2^i d_i.
func refParity(data [][]byte) (pq [2][]byte) {
	pq[0], pq[1] = make([]byte, testUnit), make([]byte, testUnit)
	coef := byte(1)
	for _, d := range data {
		for i, b := range d {
			pq[0][i] ^= b
			pq[1][i] ^= gfMul(coef, b)
		}
		coef = gfMul(coef, 2)
	}
	return pq
}

// array builds a k+m geometry of four stripes with random data and
// reference parity at rest on a fake member set, and returns the data
// units by stripe.
func array(t *testing.T, k, m int) (*Array, *fakeMembers, layout.Geometry, [][][]byte) {
	geo := layout.Geometry{Disks: k + m, StripeUnit: testUnit, DiskSize: 4 * testUnit, Level: []layout.Level{layout.RAID0, layout.RAID5, layout.RAID6}[m]}
	if err := geo.Validate(); err != nil {
		t.Fatal(err)
	}
	f := newFake(geo)
	rng := rand.New(rand.NewSource(int64(10*k + m)))
	data := make([][][]byte, geo.Stripes())
	for st := range data {
		data[st] = make([][]byte, k)
		for i := range data[st] {
			data[st][i] = make([]byte, testUnit)
			rng.Read(data[st][i])
			copy(f.disks[geo.DataDisk(int64(st), i)][geo.DiskOffset(int64(st)):], data[st][i])
		}
		pq := refParity(data[st])
		if m > 0 {
			copy(f.disks[geo.ParityDisk(int64(st))][geo.DiskOffset(int64(st)):], pq[0])
		}
		if m > 1 {
			copy(f.disks[geo.QDisk(int64(st))][geo.DiskOffset(int64(st)):], pq[1])
		}
	}
	a := New(geo, func(time.Duration) {})
	return a, f, geo, data
}

// patterns returns every set of at most two of n members.
func patterns(n int) (out []Set) {
	out = append(out, Set{})
	for a := 0; a < n; a++ {
		out = append(out, Set{n: 1, d: [2]int{a}})
		for b := a + 1; b < n; b++ {
			out = append(out, Set{n: 2, d: [2]int{a, b}})
		}
	}
	return out
}

// TestSolveMatrix drives Solve through m ∈ {0,1,2} × k ∈ {2,4,8} × every
// erasure pattern of at most two members × every set of fresh parities × a
// whole-unit and a sub-unit window × the image's own buffers and a
// caller's: the data comes back byte-exact against what was encoded
// byte-serially, each survivor and each parity used moves exactly the
// window once, nothing else is touched, and a pattern the fresh parities
// cannot cover is ErrDataLoss before any I/O.
func TestSolveMatrix(t *testing.T) {
	for _, m := range []int{0, 1, 2} {
		for _, k := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("m=%d/k=%d", m, k), func(t *testing.T) {
				a, f, geo, data := array(t, k, m)
				for st := int64(0); st < geo.Stripes(); st++ {
					for _, missing := range patterns(geo.Disks) {
						for fresh := Parities(0); fresh <= a.AllParities(); fresh++ {
							for _, win := range [][2]int64{{0, testUnit}, {5, 23}} {
								for _, dst := range []bool{false, true} {
									solveOne(t, a, f, data[st], st, missing, fresh, win[0], win[1], dst)
								}
							}
						}
					}
				}
			})
		}
	}
}

func solveOne(t *testing.T, a *Array, f *fakeMembers, data [][]byte, st int64, missing Set, fresh Parities, lo, hi int64, dst bool) {
	t.Helper()
	f.reset()
	im := a.Get(context.Background(), f, st)
	defer im.Release()
	k := len(im.Data)
	lost, live := 0, Parities(0)
	for _, d := range missing.List() {
		if im.Slot(d) < k {
			lost++
		}
	}
	for j := range im.Par {
		if fresh.Has(j) && !missing.Has(im.Member(k+j)) {
			live |= 1 << j
		}
	}
	var want Parities // the fewest live parities that cover the lost units, P first
	for j, need := 0, lost; need > 0 && j < len(im.Par); j++ {
		if live.Has(j) {
			want |= 1 << j
			need--
		}
	}
	covered := bits.OnesCount8(uint8(want)) == lost
	own := make([][]byte, k)
	if dst {
		for i := range own {
			if i%2 == 0 { // some units solved or read where the caller wants them, some not
				own[i] = make([]byte, hi-lo)
				im.Dst[i] = own[i]
			}
		}
	}
	used, err := im.Solve(missing, fresh, lo, hi)
	ctx := fmt.Sprintf("stripe %d missing %v fresh %02b window [%d,%d) dst=%v", st, missing.List(), fresh, lo, hi, dst)
	if !covered {
		if !errors.Is(err, ErrDataLoss) {
			t.Fatalf("%s: err = %v, want ErrDataLoss", ctx, err)
		}
		for d := range f.ops {
			if n := f.ops[d].Load(); n != 0 {
				t.Fatalf("%s: member %d touched %d times before the loss was reported", ctx, d, n)
			}
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if used != want {
		t.Fatalf("%s: solved through parities %02b, want %02b", ctx, used, want)
	}
	for i := range data {
		got := im.Data[i][lo:hi]
		if own[i] != nil {
			got = own[i]
		}
		if !bytes.Equal(got, data[i][lo:hi]) {
			t.Fatalf("%s: data unit %d differs from what was encoded", ctx, i)
		}
	}
	for d := range f.ops {
		slot := im.Slot(d)
		moved := int64(0)
		if !missing.Has(d) && (slot < k || want.Has(slot-k)) {
			moved = hi - lo
		}
		if r, w, n := f.read[d].Load(), f.written[d].Load(), f.ops[d].Load(); r != moved || w != 0 || n != moved/(hi-lo) {
			t.Fatalf("%s: member %d (unit %d) read %d bytes in %d ops and wrote %d, want %d read once", ctx, d, slot, r, n, w, moved)
		}
	}
}

// TestEncodeStoreFoldCheck follows one stripe through the write side:
// Encode and Store from the caller's buffer write each of the k+m
// units once, whole; Check agrees with the byte-serial reference and
// notices one flipped bit; Update is the read-modify-write delta; Store
// leaves alone the units it read and the members in skip.
func TestEncodeStoreFoldCheck(t *testing.T) {
	for _, m := range []int{0, 1, 2} {
		for _, k := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("m=%d/k=%d", m, k), func(t *testing.T) {
				a, f, geo, _ := array(t, k, m)
				const st = 2 // parity rotated off the last members
				sdb := geo.StripeDataBytes()
				p := make([]byte, sdb)
				rand.New(rand.NewSource(7)).Read(p)
				units := make([][]byte, k)
				for i := range units {
					units[i] = p[int64(i)*testUnit : int64(i+1)*testUnit]
				}
				im := a.Get(context.Background(), f, st)
				defer im.Release()
				f.reset()
				im.Encode(p, st*sdb, geo.Split(st*sdb, sdb)[0])
				if err := im.Store(Set{}); err != nil {
					t.Fatal(err)
				}
				atRest := func(slot int) []byte {
					return f.disks[im.Member(slot)][geo.DiskOffset(st):][:testUnit]
				}
				assertAtRest := func(when string) {
					t.Helper()
					pq := refParity(units)
					for slot := 0; slot < k+m; slot++ {
						want := pq[max(slot-k, 0)]
						if slot < k {
							want = units[slot]
						}
						if !bytes.Equal(atRest(slot), want) {
							t.Fatalf("%s: unit %d at rest differs from the byte-serial reference", when, slot)
						}
					}
				}
				assertAtRest("full-stripe write")
				for d := range f.ops {
					if w, n := f.written[d].Load(), f.ops[d].Load(); w != testUnit || n != 1 {
						t.Fatalf("full-stripe write: member %d written %d bytes in %d ops, want one unit once", d, w, n)
					}
				}
				clear(im.Dst)
				if err := im.Load(Set{}, a.AllParities(), 0, testUnit); err != nil {
					t.Fatal(err)
				}
				if !im.Check() {
					t.Fatal("Check refuses a stripe that matches the reference")
				}
				if m > 0 {
					im.Data[k-1][9] ^= 0x10
					if im.Check() {
						t.Fatal("Check accepts a flipped bit")
					}
					// Read-modify-write of a sub-unit range of the last unit.
					lo, src := int64(16), []byte("thirty-two new bytes of the unit")
					at := st*sdb + int64(k-1)*testUnit + lo
					if err := im.Update(src, at, geo.Split(at, int64(len(src)))[0], a.AllParities()); err != nil {
						t.Fatal(err)
					}
					copy(units[k-1][lo:], src)
					for j, par := range im.Par {
						if want := refParity(units)[j][lo : lo+int64(len(src))]; !bytes.Equal(par[lo:lo+int64(len(src))], want) {
							t.Fatalf("parity %d after Update differs from the reference over the new data", j)
						}
					}
				}
				// A reconstruct-write of the last data unit, around the last member:
				// the units read and the skipped member's are left alone.
				if err := im.Load(Set{}, 0, 0, testUnit); err != nil {
					t.Fatal(err)
				}
				at := st*sdb + int64(k-1)*testUnit
				im.Encode(p, st*sdb, geo.Split(at, testUnit)[0])
				skip := Set{n: 1, d: [2]int{im.Member(k + m - 1)}}
				f.reset()
				if err := im.Store(skip); err != nil {
					t.Fatal(err)
				}
				for slot := 0; slot < k+m; slot++ {
					want := int64(0)
					if slot >= k-1 && slot != k+m-1 {
						want = 1
					}
					if n := f.ops[im.Member(slot)].Load(); n != want {
						t.Fatalf("Store of unit %d skipping unit %d: unit %d written %d times, want %d", k-1, k+m-1, slot, n, want)
					}
				}
				if m == 2 { // Q skipped, P stored
					if !bytes.Equal(atRest(k), refParity(units)[0]) {
						t.Fatal("P stored after Encode differs from the reference")
					}
				}
			})
		}
	}
}

// TestReadSpanMovesEachSurvivorOnce: a degraded span read solves the union
// range of the extents on missing members, in place where an extent is
// exactly that range, and every survivor moves that range once — plus the
// rest of an extent that reaches past it, on its own.
func TestReadSpanMovesEachSurvivorOnce(t *testing.T) {
	a, f, geo, data := array(t, 4, 1)
	const st = 1
	sdb := geo.StripeDataBytes()
	// Extents: unit 0 from byte 40, units 1 and 2 whole, unit 3 to byte 24.
	off, n := st*sdb+40, 3*int64(testUnit)-40+24
	sp := geo.Split(off, n)[0]
	want := bytes.Join(data[st], nil)[40 : 40+n]
	for lostIdx := 0; lostIdx < 4; lostIdx++ {
		missing := Set{n: 1, d: [2]int{geo.DataDisk(st, lostIdx)}}
		f.reset()
		got := make([]byte, n)
		im := a.Get(context.Background(), f, st)
		solved, err := im.ReadSpan(got, off, sp, missing, 1)
		im.Release()
		if err != nil || !solved {
			t.Fatalf("unit %d missing: solved=%v err=%v", lostIdx, solved, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("unit %d missing: span differs from what was encoded", lostIdx)
		}
		lo, hi := sp.Extents[lostIdx].UnitOff, sp.Extents[lostIdx].UnitOff+sp.Extents[lostIdx].Len
		for _, e := range sp.Extents {
			moved, ops := hi-lo, int64(1)
			if e.UnitOff < lo || e.UnitOff+e.Len > hi { // reaches past the solved range: read on its own
				moved, ops = moved+e.Len, 2
			}
			if e.DataIdx == lostIdx {
				moved, ops = 0, 0
			}
			if r, c := f.read[e.Disk].Load(), f.ops[e.Disk].Load(); r != moved || c != ops {
				t.Fatalf("unit %d missing: unit %d's member read %d bytes in %d ops, want %d in %d", lostIdx, e.DataIdx, r, c, moved, ops)
			}
		}
		if r := f.read[geo.ParityDisk(st)].Load(); r != hi-lo {
			t.Fatalf("unit %d missing: parity read %d bytes, want %d", lostIdx, r, hi-lo)
		}
	}
	// Nothing missing under the span: its extents, once each, nothing else.
	f.reset()
	got := make([]byte, n)
	im := a.Get(context.Background(), f, st)
	solved, err := im.ReadSpan(got, off, sp, Set{n: 1, d: [2]int{geo.ParityDisk(st)}}, 0)
	im.Release()
	if err != nil || solved || !bytes.Equal(got, want) {
		t.Fatalf("healthy span: solved=%v err=%v equal=%v", solved, err, bytes.Equal(got, want))
	}
	for _, e := range sp.Extents {
		if r, c := f.read[e.Disk].Load(), f.ops[e.Disk].Load(); r != e.Len || c != 1 {
			t.Fatalf("healthy span: unit %d's member read %d bytes in %d ops, want %d once", e.DataIdx, r, c, e.Len)
		}
	}
	if c := f.ops[geo.ParityDisk(st)].Load(); c != 0 {
		t.Fatalf("healthy span touched parity %d times", c)
	}
}

// TestEveryUnitIsAttempted: a member failing in the middle of a fan-out
// stops nothing — every other unit is still moved — and the error reported
// is the first in unit order, whichever I/O finished first. Once through
// the I/O workers (a fresh array assumes disks), once inline (these
// members answer in well under a hand-off's time).
func TestEveryUnitIsAttempted(t *testing.T) {
	a, f, geo, _ := array(t, 8, 2)
	const st = 3
	im := a.Get(context.Background(), f, st)
	defer im.Release()
	errA, errB := errors.New("member A failed"), errors.New("member B failed")
	f.fail = map[int]error{im.Member(6): errB, im.Member(2): errA}
	sdb := geo.StripeDataBytes()
	p := make([]byte, sdb)
	for _, write := range []bool{false, true, false, true} {
		f.reset()
		var err error
		if write {
			im.Encode(p, st*sdb, geo.Split(st*sdb, sdb)[0]) // every data unit laid over: none is held
			err = im.Store(Set{})
		} else {
			err = im.Load(Set{}, a.AllParities(), 0, testUnit)
		}
		if err != errA {
			t.Fatalf("write=%v overlapped=%v: err = %v, want unit 2's", write, a.Overlaps(), err)
		}
		for d := 0; d < geo.Disks; d++ {
			if n := f.ops[d].Load(); n != 1 {
				t.Fatalf("write=%v overlapped=%v: member %d attempted %d times, want once", write, a.Overlaps(), d, n)
			}
		}
	}
}
