package parity

import (
	"bytes"
	"testing"
	"testing/quick"
)

// gfMul multiplies two field elements; the kernels and the codec index
// gfMulTab rows directly, so only the tests multiply one pair at a time.
func gfMul(a, b byte) byte { return gfMulTab[a][b] }

// gfDiv divides a by b (b != 0).
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("parity: GF division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

func TestGFMulProperties(t *testing.T) {
	// Identity, zero, commutativity, and distributivity over a sample.
	for a := 0; a < 256; a++ {
		if gfMul(byte(a), 1) != byte(a) {
			t.Fatalf("a*1 != a for a=%d", a)
		}
		if gfMul(byte(a), 0) != 0 {
			t.Fatalf("a*0 != 0 for a=%d", a)
		}
	}
	prop := func(a, b, c byte) bool {
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
	}
}

func TestGFDivInvertsMul(t *testing.T) {
	prop := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return gfDiv(gfMul(a, b), b) == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFPowCycle(t *testing.T) {
	if gfPow(0) != 1 {
		t.Fatal("g^0 != 1")
	}
	if gfPow(255) != 1 {
		t.Fatal("g^255 != 1 (generator order)")
	}
	if gfPow(-1) != gfInv(gfPow(1)) {
		t.Fatal("g^-1 != inverse of g")
	}
}

func randomBlocks(seed uint64, width, blockLen int) [][]byte {
	s := seed
	next := func() byte {
		s = s*6364136223846793005 + 1442695040888963407
		return byte(s >> 56)
	}
	blocks := make([][]byte, width)
	for i := range blocks {
		blocks[i] = make([]byte, blockLen)
		for j := range blocks[i] {
			blocks[i][j] = next()
		}
	}
	return blocks
}

// gfMulRef is bit-serial multiplication mod 0x11d: the byte-wise
// reference the solver is checked against, sharing no table or kernel
// with the code under test.
func gfMulRef(a, b byte) byte {
	var p byte
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

// solveRef is the naive byte-at-a-time erasure solver: the syndromes of
// the missing units are accumulated from the survivors with gfMulRef,
// and inverses are found by exhaustive search.
func solveRef(data [][]byte, missing []int, p, q []byte) {
	pow := func(n int) byte {
		v := byte(1)
		for ; n > 0; n-- {
			v = gfMulRef(v, 2)
		}
		return v
	}
	inv := func(a byte) byte {
		for b := 1; b < 256; b++ {
			if gfMulRef(a, byte(b)) == 1 {
				return byte(b)
			}
		}
		panic("no inverse")
	}
	gone := func(i int) bool {
		for _, m := range missing {
			if m == i {
				return true
			}
		}
		return false
	}
	for pos := range data[missing[0]] {
		var ps, qs byte // syndromes: what the missing units contribute to P and Q
		if p != nil {
			ps = p[pos]
		}
		if q != nil {
			qs = q[pos]
		}
		for i, b := range data {
			if !gone(i) {
				ps ^= b[pos]
				qs ^= gfMulRef(pow(i), b[pos])
			}
		}
		switch {
		case len(missing) == 1 && p != nil:
			data[missing[0]][pos] = ps
		case len(missing) == 1:
			data[missing[0]][pos] = gfMulRef(qs, inv(pow(missing[0])))
		default:
			// dx ^ dy = ps, g^x dx ^ g^y dy = qs
			x, y := missing[0], missing[1]
			dx := gfMulRef(qs^gfMulRef(pow(y), ps), inv(pow(x)^pow(y)))
			data[x][pos], data[y][pos] = dx, ps^dx
		}
	}
}

// TestSolveMatchesReference is the differential test of the slice-
// indexed solve entry point: every single erasure from P alone and from
// Q alone, and every (x,y) pair in both orders, at k = 4 and 8, must
// match the naive reference and the original data. The length is odd so
// the SIMD kernels exercise their tails; the noasm build runs the same
// table over the generic kernels.
func TestSolveMatchesReference(t *testing.T) {
	const n = 4099
	for _, k := range []int{4, 8} {
		orig := randomBlocks(uint64(k), k, n)
		p, q := make([]byte, n), make([]byte, n)
		Code(2).Encode([][]byte{p, q}, orig)
		try := func(code Code, missing []int, par [][]byte) {
			t.Helper()
			got, want := cloneBlocks(orig), cloneBlocks(orig)
			for _, m := range missing {
				fill(got[m], 0xdead) // the solver must overwrite, not fold into, its outputs
			}
			if !code.Solve(got, missing, par) {
				t.Fatalf("k=%d missing=%v: Solve refused a solvable set", k, missing)
			}
			var rp, rq []byte
			if len(par) > 0 {
				rp = par[0]
			}
			if len(par) > 1 {
				rq = par[1]
			}
			solveRef(want, missing, rp, rq)
			for i := range orig {
				if !bytes.Equal(got[i], want[i]) || !bytes.Equal(got[i], orig[i]) {
					t.Fatalf("k=%d missing=%v: unit %d diverges from the reference", k, missing, i)
				}
			}
		}
		for x := 0; x < k; x++ {
			try(Code(1), []int{x}, [][]byte{p})
			try(Code(2), []int{x}, [][]byte{p, q})
			try(Code(2), []int{x}, [][]byte{nil, q})
			for y := 0; y < k; y++ {
				if x != y {
					try(Code(2), []int{x, y}, [][]byte{p, q})
				}
			}
		}
	}
}

// Solve must refuse, and leave its operands alone, when the available
// parities cannot cover the missing set.
func TestSolveRefusesUncoveredSets(t *testing.T) {
	orig := randomBlocks(3, 4, 64)
	p, q := make([]byte, 64), make([]byte, 64)
	ComputePQ(p, q, orig...)
	for _, tc := range []struct {
		code    Code
		missing []int
		par     [][]byte
	}{
		{Code(0), []int{1}, nil},
		{Code(1), []int{1}, [][]byte{nil}},
		{Code(1), []int{0, 1}, [][]byte{p}},
		{Code(1), []int{1}, [][]byte{nil, q}}, // a single-parity code has no Q to use
		{Code(2), []int{0, 1}, [][]byte{p, nil}},
		{Code(2), []int{0, 1}, [][]byte{nil, q}},
		{Code(2), []int{0, 1, 2}, [][]byte{p, q}},
	} {
		got := cloneBlocks(orig)
		if tc.code.Solve(got, tc.missing, tc.par) {
			t.Fatalf("Code(%d) solved missing=%v with an uncovering parity set", tc.code, tc.missing)
		}
		for i := range orig {
			if !bytes.Equal(got[i], orig[i]) {
				t.Fatalf("Code(%d) missing=%v: refused solve modified unit %d", tc.code, tc.missing, i)
			}
		}
	}
	if !Code(0).Solve(orig, nil, nil) {
		t.Fatal("nothing missing must always solve")
	}
}

func cloneBlocks(blocks [][]byte) [][]byte {
	out := make([][]byte, len(blocks))
	for i, b := range blocks {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

func TestCheckPQDetectsCorruption(t *testing.T) {
	blocks := randomBlocks(99, 4, 32)
	p := make([]byte, 32)
	q := make([]byte, 32)
	ComputePQ(p, q, blocks...)
	if !CheckPQ(p, q, blocks...) {
		t.Fatal("CheckPQ rejected valid parity")
	}
	q[5] ^= 0x01
	if CheckPQ(p, q, blocks...) {
		t.Fatal("CheckPQ accepted corrupted Q")
	}
}

func TestPQMatchesXORForP(t *testing.T) {
	blocks := randomBlocks(7, 5, 16)
	p := make([]byte, 16)
	q := make([]byte, 16)
	ComputePQ(p, q, blocks...)
	p2 := make([]byte, 16)
	Compute(p2, blocks...)
	if !bytes.Equal(p, p2) {
		t.Fatal("RAID 6 P parity differs from RAID 5 XOR parity")
	}
}

func TestSolveSameIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("x == y did not panic")
		}
	}()
	blocks := randomBlocks(1, 4, 4)
	Code(2).Solve(blocks, []int{2, 2}, [][]byte{make([]byte, 4), make([]byte, 4)})
}
