package parity

// Kernel dispatch. The package-level function variables below default to
// the portable word-wise kernels; on amd64 with AVX2 (or arm64, where
// NEON is architecturally guaranteed) an arch init() swaps in assembly
// implementations and records the backend name. The `noasm` build tag
// compiles the assembly and its init out entirely, so the variables keep
// their generic values on every platform.
//
// Contract for every kernel variable: lengths are already validated by
// the exported entry point (all operands share dst's length), operands
// do not alias each other, and the kernel must be byte-exact with its
// generic counterpart — the generic kernels double as the differential
// fuzz oracle (see kernel_test.go / fuzz targets).

// kernelName identifies the active backend: "avx2", "neon", or "generic".
var kernelName = "generic"

// Kernel reports which parity kernel backend was selected at init:
// "avx2", "neon", or "generic". Benchmarks record it next to throughput
// numbers so results are comparable across hosts.
func Kernel() string { return kernelName }

var (
	// xorKernel: dst ^= src.
	xorKernel = xorGeneric
	// xorInto2Kernel: dst ^= a ^ b (one pass over dst).
	xorInto2Kernel = xorInto2Generic
	// xorInto3Kernel: dst ^= a ^ b ^ c.
	xorInto3Kernel = xorInto3Generic
	// xorInto4Kernel: dst ^= a ^ b ^ c ^ e.
	xorInto4Kernel = xorInto4Generic
	// gfMulXorKernel: dst ^= c*src over GF(2^8); c is never 0 or 1
	// (mulInto strength-reduces those to a no-op / plain XOR first).
	gfMulXorKernel = gfMulXorGeneric
	// gfFoldPQKernel: p ^= src, q ^= c*src in one pass over src.
	gfFoldPQKernel = foldPQGeneric
	// gfMulUpdKernel: q ^= c*(old^new) without materializing the delta.
	gfMulUpdKernel = mulUpdateGeneric
	// crc32cKernel: the CRC32C of p continued from crc. Chosen by its own
	// CPU gate, so it is not part of what Kernel() names.
	crc32cKernel = crc32cGeneric
)
