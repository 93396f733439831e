package parity

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"afraid/internal/testutil"
)

// xorNaive is the reference byte-at-a-time fold the word-wise kernels
// are checked (and benchmarked) against.
func xorNaive(dst []byte, srcs ...[]byte) {
	for _, s := range srcs {
		for i := range dst {
			dst[i] ^= s[i]
		}
	}
}

// checkWord is the word-at-a-time parity check Check used to be: the
// reference the chunked, dispatched Check is checked (and benchmarked)
// against.
func checkWord(p []byte, blocks ...[]byte) bool {
	n := len(p)
	i := 0
	for ; i+wordSize <= n; i += wordSize {
		v := binary.LittleEndian.Uint64(p[i:])
		for _, b := range blocks {
			v ^= binary.LittleEndian.Uint64(b[i:])
		}
		if v != 0 {
			return false
		}
	}
	for ; i < n; i++ {
		v := p[i]
		for _, b := range blocks {
			v ^= b[i]
		}
		if v != 0 {
			return false
		}
	}
	return true
}

// fill writes a deterministic pseudo-random pattern.
func fill(b []byte, seed uint64) {
	s := seed*6364136223846793005 + 1442695040888963407
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = byte(s >> 56)
	}
}

func TestXORIntoMatchesNaive(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 63, 512, 513, 8191, 8192} {
		for k := 0; k <= 5; k++ {
			srcs := make([][]byte, k)
			for i := range srcs {
				srcs[i] = make([]byte, n)
				fill(srcs[i], uint64(n*10+i))
			}
			want := make([]byte, n)
			got := make([]byte, n)
			fill(want, uint64(n))
			copy(got, want)
			xorNaive(want, srcs...)
			XORInto(got, srcs...)
			if !bytes.Equal(got, want) {
				t.Fatalf("XORInto(n=%d, k=%d) diverges from naive fold", n, k)
			}
		}
	}
}

func TestXORIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	XORInto(make([]byte, 8), make([]byte, 8), make([]byte, 7))
}

func TestXORIntoMismatchLeavesDstUntouched(t *testing.T) {
	// Validate-first: a bad source in any position must not partially
	// fold the earlier sources into dst.
	dst := []byte{1, 2, 3, 4}
	orig := append([]byte(nil), dst...)
	func() {
		defer func() { recover() }()
		XORInto(dst, []byte{9, 9, 9, 9}, []byte{1, 2, 3})
	}()
	if !bytes.Equal(dst, orig) {
		t.Fatalf("dst mutated to %v before panic", dst)
	}
}

func TestComputeMismatchLeavesParityUntouched(t *testing.T) {
	// The seed code copied blocks[0] into p before validating, partially
	// mutating the destination of a doomed call.
	p := []byte{7, 7, 7, 7}
	orig := append([]byte(nil), p...)
	func() {
		defer func() { recover() }()
		Compute(p, []byte{1, 2}, []byte{3, 4, 5, 6})
	}()
	if !bytes.Equal(p, orig) {
		t.Fatalf("parity mutated to %v before panic", p)
	}
}

func TestReconstructMismatchLeavesDstUntouched(t *testing.T) {
	dst := []byte{7, 7, 7, 7}
	orig := append([]byte(nil), dst...)
	func() {
		defer func() { recover() }()
		Reconstruct(dst, []byte{1, 2, 3, 4}, []byte{1, 2, 3})
	}()
	if !bytes.Equal(dst, orig) {
		t.Fatalf("dst mutated to %v before panic", dst)
	}
}

func TestComputePQMismatchLeavesParitiesUntouched(t *testing.T) {
	p := []byte{7, 7, 7, 7}
	q := []byte{9, 9, 9, 9}
	origP := append([]byte(nil), p...)
	origQ := append([]byte(nil), q...)
	func() {
		defer func() { recover() }()
		ComputePQ(p, q, []byte{1, 2, 3, 4}, []byte{1, 2, 3})
	}()
	if !bytes.Equal(p, origP) || !bytes.Equal(q, origQ) {
		t.Fatalf("parities mutated to %v/%v before panic", p, q)
	}
}

func TestUpdateMatchesTwoXORs(t *testing.T) {
	prop := func(p, old, new []byte) bool {
		n := 41 // odd length exercises the byte tail
		pad := func(x []byte) []byte {
			out := make([]byte, n)
			copy(out, x)
			return out
		}
		p, old, new = pad(p), pad(old), pad(new)
		want := append([]byte(nil), p...)
		XOR(want, old)
		XOR(want, new)
		Update(p, old, new)
		return bytes.Equal(p, want)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFMulTableMatchesLogExp(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			var want byte
			if a != 0 && b != 0 {
				want = gfExp[int(gfLog[a])+int(gfLog[b])]
			}
			if got := gfMul(byte(a), byte(b)); got != want {
				t.Fatalf("gfMul(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestFoldPQMatchesSeparateCalls(t *testing.T) {
	n := 100
	src := make([]byte, n)
	fill(src, 3)
	for _, c := range []byte{0, 1, 2, 29, 255} {
		p1, q1 := make([]byte, n), make([]byte, n)
		p2, q2 := make([]byte, n), make([]byte, n)
		fill(p1, 4)
		fill(q1, 5)
		copy(p2, p1)
		copy(q2, q1)
		XOR(p1, src)
		mulInto(q1, src, c)
		foldPQ(p2, q2, src, c)
		if !bytes.Equal(p1, p2) || !bytes.Equal(q1, q2) {
			t.Fatalf("foldPQ(c=%d) diverges from XOR+mulInto", c)
		}
	}
}

func TestUpdateQMatchesDeltaForm(t *testing.T) {
	n := 77
	q1 := make([]byte, n)
	old := make([]byte, n)
	new := make([]byte, n)
	fill(q1, 1)
	fill(old, 2)
	fill(new, 3)
	q2 := append([]byte(nil), q1...)
	// Reference: materialize the delta, then mulInto.
	delta := append([]byte(nil), old...)
	XOR(delta, new)
	mulInto(q1, delta, gfPow(5))
	UpdateQ(q2, old, new, 5)
	if !bytes.Equal(q1, q2) {
		t.Fatal("UpdateQ diverges from materialized-delta form")
	}
}

// TestHotKernelsAllocFree asserts the steady-state data path allocates
// nothing: Check, CheckPQ, UpdateQ, CRC32C, and Code.Solve (one and two
// erasures) after the buffer pool has warmed.
func TestHotKernelsAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector adds allocations; assertion only holds in normal builds")
	}
	n := 8 << 10
	blocks := make([][]byte, 4)
	for i := range blocks {
		blocks[i] = make([]byte, n)
		fill(blocks[i], uint64(i))
	}
	p := make([]byte, n)
	q := make([]byte, n)
	ComputePQ(p, q, blocks...)

	if a := testing.AllocsPerRun(20, func() {
		if !Check(p, blocks[0], blocks[1], blocks[2], blocks[3]) {
			t.Fatal("Check rejected consistent parity")
		}
	}); a > 0 {
		t.Errorf("Check allocates %v per op", a)
	}

	if a := testing.AllocsPerRun(20, func() {
		if !CheckPQ(p, q, blocks[0], blocks[1], blocks[2], blocks[3]) {
			t.Fatal("CheckPQ rejected consistent parity")
		}
	}); a > 0 {
		t.Errorf("CheckPQ allocates %v per op", a)
	}

	qc := append([]byte(nil), q...)
	if a := testing.AllocsPerRun(20, func() {
		UpdateQ(qc, blocks[1], blocks[2], 1)
	}); a > 0 {
		t.Errorf("UpdateQ allocates %v per op", a)
	}

	if a := testing.AllocsPerRun(20, func() {
		CRC32C(0, blocks[0])
	}); a > 0 {
		t.Errorf("CRC32C allocates %v per op", a)
	}

	work := make([][]byte, len(blocks))
	for i, b := range blocks {
		work[i] = append([]byte(nil), b...)
	}
	par := [][]byte{p, q}
	for _, missing := range [][]int{{1}, {0, 1}} {
		if a := testing.AllocsPerRun(20, func() {
			if !Code(2).Solve(work, missing, par) {
				t.Fatal("Solve refused a solvable set")
			}
		}); a > 0 {
			t.Errorf("Solve%v allocates %v per op", missing, a)
		}
	}
	if !bytes.Equal(work[0], blocks[0]) || !bytes.Equal(work[1], blocks[1]) {
		t.Error("Solve wrong answer")
	}
}

func FuzzXORInto(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(3), uint8(0))
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xaa}, 100), bytes.Repeat([]byte{0x55}, 100), uint8(5), uint8(17))
	f.Add(bytes.Repeat([]byte{0x1d}, 65), bytes.Repeat([]byte{0x80}, 65), uint8(4), uint8(31))
	f.Fuzz(func(t *testing.T, dst, src []byte, k uint8, off uint8) {
		if len(src) > len(dst) {
			src = src[:len(dst)]
		} else {
			dst = dst[:len(src)]
		}
		// Place every operand at a fuzz-chosen offset inside its own
		// backing array: each slice is a distinct allocation (no operand
		// aliasing), and the dispatched kernels see unaligned bases.
		place := func(b []byte, o int) []byte {
			back := make([]byte, len(b)+64)
			copy(back[o:], b)
			return back[o : o+len(b) : o+len(b)]
		}
		// Derive k (bounded) sources from src by rotation so they differ.
		srcs := make([][]byte, int(k%6))
		for i := range srcs {
			s := make([]byte, len(src))
			for j := range src {
				s[j] = src[(j+i)%max(len(src), 1)] ^ byte(i)
			}
			srcs[i] = place(s, (int(off)+i*7)%32)
		}
		want := append([]byte(nil), dst...)
		got := place(dst, int(off)%32)
		xorNaive(want, srcs...)
		XORInto(got, srcs...)
		if !bytes.Equal(got, want) {
			t.Fatalf("XORInto(len=%d, k=%d, off=%d) = %x, naive = %x", len(dst), len(srcs), int(off)%32, got, want)
		}
	})
}

// TestCheckMatchesWordLoop runs Check and CheckPQ against the word loop
// over lengths either side of a chunk and fan-ins either side of the
// four-source gather: clean parity passes, and one flipped bit anywhere —
// first byte, chunk seams, the tail — in P, in Q or in a block fails.
func TestCheckMatchesWordLoop(t *testing.T) {
	for _, n := range []int{1, 7, 31, 32, 33, checkChunk - 1, checkChunk, checkChunk + 1, 3*checkChunk + 5, 8 << 10} {
		for _, k := range []int{1, 2, 4, 5, 9} {
			blocks := make([][]byte, k)
			for i := range blocks {
				blocks[i] = make([]byte, n)
				fill(blocks[i], uint64(n+i))
			}
			p, q := make([]byte, n), make([]byte, n)
			ComputePQ(p, q, blocks...)
			if !checkWord(p, blocks...) || !Check(p, blocks...) || !CheckPQ(p, q, blocks...) {
				t.Fatalf("n=%d k=%d: clean parity rejected", n, k)
			}
			for _, at := range []int{0, n / 2, checkChunk - 1, checkChunk, n - 1} {
				if at >= n {
					continue
				}
				for _, victim := range [][]byte{p, q, blocks[k-1]} {
					victim[at] ^= 0x10
					want := checkWord(p, blocks...)
					if got := Check(p, blocks...); got != want {
						t.Fatalf("n=%d k=%d flip at %d: Check = %v, word loop = %v", n, k, at, got, want)
					}
					if CheckPQ(p, q, blocks...) {
						t.Fatalf("n=%d k=%d flip at %d: CheckPQ accepted it", n, k, at)
					}
					victim[at] ^= 0x10
				}
			}
		}
	}
}
