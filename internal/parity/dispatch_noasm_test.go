//go:build noasm

package parity

import "testing"

// With the noasm tag the assembly and the arch init()s are compiled out,
// so dispatch must report the portable backend on every platform, and
// CRC32C must be hash/crc32's.
func TestNoasmForcesGenericKernel(t *testing.T) {
	if k := Kernel(); k != "generic" {
		t.Fatalf("Kernel() = %q under -tags noasm, want generic", k)
	}
	if !sameFunc(crc32cKernel, crc32cGeneric) {
		t.Fatal("crc32cKernel is not hash/crc32 under -tags noasm")
	}
}
