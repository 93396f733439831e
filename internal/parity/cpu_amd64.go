//go:build amd64 && !noasm

package parity

// AVX2 backend selection. We detect support ourselves (no x/sys dep):
// AVX2 needs CPUID.7.0:EBX bit 5, plus OSXSAVE/AVX (CPUID.1:ECX bits
// 27/28) and OS-enabled YMM state (XCR0 bits 1-2 via XGETBV). The asm
// kernels process 32-byte lanes over the n&^31 prefix; the wrappers
// finish the tail with the generic kernels, so any length and any
// alignment is legal (all loads/stores are unaligned forms). The
// CRC32C kernel has a gate of its own (hasAVX512CLMUL) and the same
// shape over 256-byte blocks.

//go:noescape
func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func xorAVX2(dst, src *byte, n int)

//go:noescape
func xorInto2AVX2(dst, a, b *byte, n int)

//go:noescape
func xorInto3AVX2(dst, a, b, c *byte, n int)

//go:noescape
func xorInto4AVX2(dst, a, b, c, e *byte, n int)

//go:noescape
func gfMulXorAVX2(dst, src *byte, n int, tab *[32]byte)

//go:noescape
func gfFoldPQAVX2(p, q, src *byte, n int, tab *[32]byte)

//go:noescape
func gfMulUpdAVX2(q, old, new *byte, n int, tab *[32]byte)

//go:noescape
func crc32cAVX512(crc uint32, p *byte, n int, k *[12]uint64) uint32

// cpuFeatures reads the feature words both gates test: CPUID.1:ECX,
// CPUID.7.0:EBX and ECX (zero when leaf 7 is absent), and XCR0 (zero
// unless OSXSAVE says XGETBV may run).
func cpuFeatures() (ecx1, ebx7, ecx7, xcr0 uint32) {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	_, _, ecx1, _ = cpuidex(1, 0)
	if ecx1&(1<<27) != 0 { // OSXSAVE
		xcr0, _ = xgetbv0()
	}
	if maxLeaf >= 7 {
		_, ebx7, ecx7, _ = cpuidex(7, 0)
	}
	return
}

func hasAVX2() bool {
	ecx1, ebx7, _, xcr0 := cpuFeatures()
	const osxsaveAVX = 1<<27 | 1<<28 // OSXSAVE | AVX
	return ecx1&osxsaveAVX == osxsaveAVX &&
		xcr0&0x6 == 0x6 && // XMM and YMM state enabled by the OS
		ebx7&(1<<5) != 0 // AVX2
}

// hasAVX512CLMUL is the CRC32C kernel's gate: 512-bit carry-less
// multiply (AVX512F, AVX512VL, VPCLMULQDQ), PCLMULQDQ and SSE4.2 for the
// CRC32Q finish, and XMM, YMM, opmask and both halves of ZMM state
// enabled by the OS (XCR0 bits 1, 2, 5, 6, 7).
func hasAVX512CLMUL() bool {
	ecx1, ebx7, ecx7, xcr0 := cpuFeatures()
	const (
		clmulSSE42 = 1<<1 | 1<<20 | 1<<27 // PCLMULQDQ | SSE4.2 | OSXSAVE
		f512VL     = 1<<16 | 1<<31        // AVX512F | AVX512VL
	)
	return ecx1&clmulSSE42 == clmulSSE42 &&
		xcr0&0xE6 == 0xE6 &&
		ebx7&f512VL == f512VL &&
		ecx7&(1<<10) != 0 // VPCLMULQDQ
}

func init() {
	if hasAVX512CLMUL() {
		crc32cKernel = crc32cAVX512Wrap
	}
	if !hasAVX2() {
		return
	}
	buildNibTables()
	xorKernel = xorAVX2Wrap
	xorInto2Kernel = xorInto2AVX2Wrap
	xorInto3Kernel = xorInto3AVX2Wrap
	xorInto4Kernel = xorInto4AVX2Wrap
	gfMulXorKernel = gfMulXorAVX2Wrap
	gfFoldPQKernel = gfFoldPQAVX2Wrap
	gfMulUpdKernel = gfMulUpdAVX2Wrap
	kernelName = "avx2"
}

func xorAVX2Wrap(dst, src []byte) {
	n := len(dst) &^ 31
	if n != 0 {
		xorAVX2(&dst[0], &src[0], n)
	}
	if n != len(dst) {
		xorGeneric(dst[n:], src[n:])
	}
}

func xorInto2AVX2Wrap(dst, a, b []byte) {
	n := len(dst) &^ 31
	if n != 0 {
		xorInto2AVX2(&dst[0], &a[0], &b[0], n)
	}
	if n != len(dst) {
		xorInto2Generic(dst[n:], a[n:], b[n:])
	}
}

func xorInto3AVX2Wrap(dst, a, b, c []byte) {
	n := len(dst) &^ 31
	if n != 0 {
		xorInto3AVX2(&dst[0], &a[0], &b[0], &c[0], n)
	}
	if n != len(dst) {
		xorInto3Generic(dst[n:], a[n:], b[n:], c[n:])
	}
}

func xorInto4AVX2Wrap(dst, a, b, c, e []byte) {
	n := len(dst) &^ 31
	if n != 0 {
		xorInto4AVX2(&dst[0], &a[0], &b[0], &c[0], &e[0], n)
	}
	if n != len(dst) {
		xorInto4Generic(dst[n:], a[n:], b[n:], c[n:], e[n:])
	}
}

func gfMulXorAVX2Wrap(dst, src []byte, c byte) {
	n := len(src) &^ 31
	if n != 0 {
		gfMulXorAVX2(&dst[0], &src[0], n, &gfNib[c])
	}
	if n != len(src) {
		gfMulXorGeneric(dst[n:], src[n:], c)
	}
}

func gfFoldPQAVX2Wrap(p, q, src []byte, c byte) {
	n := len(src) &^ 31
	if n != 0 {
		gfFoldPQAVX2(&p[0], &q[0], &src[0], n, &gfNib[c])
	}
	if n != len(src) {
		foldPQGeneric(p[n:], q[n:], src[n:], c)
	}
}

func gfMulUpdAVX2Wrap(q, oldData, newData []byte, c byte) {
	n := len(q) &^ 31
	if n != 0 {
		gfMulUpdAVX2(&q[0], &oldData[0], &newData[0], n, &gfNib[c])
	}
	if n != len(q) {
		mulUpdateGeneric(q[n:], oldData[n:], newData[n:], c)
	}
}

// crc32cAVX512Wrap folds the n&^255 prefix in assembly, which works on
// the inverted register as hash/crc32 does inside Update, and leaves the
// tail to hash/crc32.
func crc32cAVX512Wrap(crc uint32, p []byte) uint32 {
	n := len(p) &^ 255
	if n != 0 {
		crc = ^crc32cAVX512(^crc, &p[0], n, &crcFold)
	}
	if n != len(p) {
		crc = crc32cGeneric(crc, p[n:])
	}
	return crc
}
