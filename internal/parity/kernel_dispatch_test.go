package parity

import (
	"bytes"
	"reflect"
	"testing"
)

// These tests pin the dispatch contract: whatever backend init selected,
// every dispatched kernel variable is byte-exact with its generic
// counterpart at odd lengths and unaligned base addresses, and never
// touches a byte outside its operands. On the generic fallback the
// comparison is trivially true; on avx2/neon it is the differential
// check of the assembly against the pure-Go oracle.

func TestKernelDispatch(t *testing.T) {
	switch k := Kernel(); k {
	case "avx2", "neon", "generic":
		t.Logf("parity kernel backend: %s", k)
	default:
		t.Fatalf("Kernel() = %q, want avx2, neon, or generic", k)
	}
}

// sameFunc reports whether two kernel variables hold the same function.
func sameFunc(a, b any) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }

// guarded carves an n-byte view at the given offset out of a larger
// backing array and returns view plus a function that verifies the
// bytes outside the view were never written.
func guarded(t *testing.T, n, off int, seed uint64) (view []byte, checkGuards func(what string)) {
	t.Helper()
	back := make([]byte, n+off+32)
	fill(back, seed)
	snap := append([]byte(nil), back...)
	view = back[off : off+n : off+n]
	return view, func(what string) {
		t.Helper()
		if !bytes.Equal(back[:off], snap[:off]) || !bytes.Equal(back[off+n:], snap[off+n:]) {
			t.Fatalf("%s (n=%d off=%d) wrote outside its operand", what, n, off)
		}
	}
}

var kernelTestLengths = []int{1, 3, 15, 16, 17, 31, 32, 33, 47, 63, 64, 65, 100, 127, 128, 129, 255, 256, 257, 1023, 4096, 4097}
var kernelTestOffsets = []int{0, 1, 3, 8, 15, 17, 31}

func TestXORKernelsMatchGenericUnaligned(t *testing.T) {
	for _, n := range kernelTestLengths {
		for _, off := range kernelTestOffsets {
			srcs := make([][]byte, 4)
			for i := range srcs {
				// Each source gets its own backing at its own offset, so
				// operands never alias or share cachelines predictably.
				s, _ := guarded(t, n, (off+i*7)%32, uint64(n*100+off*10+i))
				srcs[i] = s
			}
			for k := 1; k <= 4; k++ {
				want, _ := guarded(t, n, 0, uint64(n+off))
				got, check := guarded(t, n, off, uint64(n+off))
				copy(want, got)
				switch k {
				case 1:
					xorGeneric(want, srcs[0])
					xorKernel(got, srcs[0])
				case 2:
					xorInto2Generic(want, srcs[0], srcs[1])
					xorInto2Kernel(got, srcs[0], srcs[1])
				case 3:
					xorInto3Generic(want, srcs[0], srcs[1], srcs[2])
					xorInto3Kernel(got, srcs[0], srcs[1], srcs[2])
				case 4:
					xorInto4Generic(want, srcs[0], srcs[1], srcs[2], srcs[3])
					xorInto4Kernel(got, srcs[0], srcs[1], srcs[2], srcs[3])
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("xor kernel arity %d diverges from generic (n=%d off=%d, backend=%s)", k, n, off, Kernel())
				}
				check("xor kernel")
			}
		}
	}
}

func TestGFKernelsMatchGenericUnaligned(t *testing.T) {
	coeffs := []byte{0, 1, 2, 3, 29, 128, 255}
	for _, n := range kernelTestLengths {
		for _, off := range kernelTestOffsets {
			src, _ := guarded(t, n, (off+5)%32, uint64(n*7+off))
			old, _ := guarded(t, n, (off+11)%32, uint64(n*13+off))
			for _, c := range coeffs {
				// dst ^= c*src
				want, _ := guarded(t, n, 0, uint64(n+off+int(c)))
				got, check := guarded(t, n, off, uint64(n+off+int(c)))
				copy(want, got)
				gfMulXorGeneric(want, src, c)
				gfMulXorKernel(got, src, c)
				if !bytes.Equal(got, want) {
					t.Fatalf("gfMulXor diverges (n=%d off=%d c=%d, backend=%s)", n, off, c, Kernel())
				}
				check("gfMulXor")

				// p ^= src, q ^= c*src
				wp, _ := guarded(t, n, 0, uint64(n+1))
				wq, _ := guarded(t, n, 0, uint64(n+2))
				gp, checkP := guarded(t, n, off, uint64(n+1))
				gq, checkQ := guarded(t, n, (off+13)%32, uint64(n+2))
				copy(wp, gp)
				copy(wq, gq)
				foldPQGeneric(wp, wq, src, c)
				gfFoldPQKernel(gp, gq, src, c)
				if !bytes.Equal(gp, wp) || !bytes.Equal(gq, wq) {
					t.Fatalf("gfFoldPQ diverges (n=%d off=%d c=%d, backend=%s)", n, off, c, Kernel())
				}
				checkP("gfFoldPQ p")
				checkQ("gfFoldPQ q")

				// q ^= c*(old^new)
				wu, _ := guarded(t, n, 0, uint64(n+3))
				gu, checkU := guarded(t, n, off, uint64(n+3))
				copy(wu, gu)
				mulUpdateGeneric(wu, old, src, c)
				gfMulUpdKernel(gu, old, src, c)
				if !bytes.Equal(gu, wu) {
					t.Fatalf("gfMulUpd diverges (n=%d off=%d c=%d, backend=%s)", n, off, c, Kernel())
				}
				checkU("gfMulUpd")
			}
		}
	}
}

// FuzzGFKernels differential-fuzzes the dispatched GF(2^8) kernels
// against the generic table kernels at arbitrary lengths, coefficients,
// and base offsets. On the generic fallback this degenerates to a
// self-comparison, which keeps the corpus portable across machines.
func FuzzGFKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(29), uint8(1))
	f.Add(bytes.Repeat([]byte{0xaa}, 100), byte(2), uint8(17))
	f.Add(bytes.Repeat([]byte{0xff}, 64), byte(255), uint8(31))
	f.Add([]byte{0}, byte(0), uint8(0))
	f.Fuzz(func(t *testing.T, src []byte, c byte, off uint8) {
		n := len(src)
		if n == 0 {
			return
		}
		o := int(off % 32)
		place := func(seed uint64) []byte {
			back := make([]byte, n+64)
			fill(back, seed)
			return back[o : o+n : o+n]
		}
		unaligned := func(b []byte) []byte {
			back := make([]byte, n+64)
			copy(back[o:], b)
			return back[o : o+n : o+n]
		}
		usrc := unaligned(src)

		// Oracle and dispatched kernel each run on their own copy of the
		// operands, every slice based at offset o into a fresh backing
		// array, so the asm sees arbitrary (fuzz-chosen) base alignment.
		d1 := place(uint64(n) + uint64(c))
		d2 := unaligned(d1)
		gfMulXorGeneric(d1, usrc, c)
		gfMulXorKernel(d2, usrc, c)
		if !bytes.Equal(d1, d2) {
			t.Fatalf("gfMulXor diverges from generic (n=%d c=%d off=%d)", n, c, o)
		}

		p1, q1 := place(3), place(4)
		p2, q2 := unaligned(p1), unaligned(q1)
		foldPQGeneric(p1, q1, usrc, c)
		gfFoldPQKernel(p2, q2, usrc, c)
		if !bytes.Equal(p1, p2) || !bytes.Equal(q1, q2) {
			t.Fatalf("gfFoldPQ diverges from generic (n=%d c=%d off=%d)", n, c, o)
		}

		old := place(5)
		u1 := place(6)
		u2 := unaligned(u1)
		mulUpdateGeneric(u1, old, usrc, c)
		gfMulUpdKernel(u2, old, usrc, c)
		if !bytes.Equal(u1, u2) {
			t.Fatalf("gfMulUpd diverges from generic (n=%d c=%d off=%d)", n, c, o)
		}
	})
}
