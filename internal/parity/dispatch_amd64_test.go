//go:build amd64 && !noasm

package parity

import "testing"

// The selected backend must agree with what the CPU reports: AVX2
// hardware gets the asm kernels, anything older keeps the generic ones.
func TestAMD64KernelMatchesCPUID(t *testing.T) {
	want := "generic"
	if hasAVX2() {
		want = "avx2"
	}
	if k := Kernel(); k != want {
		t.Fatalf("Kernel() = %q, want %q (hasAVX2=%v)", k, want, hasAVX2())
	}
}

// The CRC32C folding kernel is selected exactly when its own gate
// passes, whatever Kernel() reports.
func TestAMD64CRCKernelMatchesCPUID(t *testing.T) {
	want, name := crc32cGeneric, "hash/crc32"
	if hasAVX512CLMUL() {
		want, name = crc32cAVX512Wrap, "avx512 folding"
	}
	if !sameFunc(crc32cKernel, want) {
		t.Fatalf("crc32cKernel is not the %s kernel (hasAVX512CLMUL=%v)", name, hasAVX512CLMUL())
	}
	t.Logf("CRC32C kernel: %s", name)
}
