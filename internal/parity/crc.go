package parity

import "hash/crc32"

// CRC32C, the Castagnoli checksum core's block-checksum slots carry. It
// sits beside the parity kernels because it is dispatched the same way:
// the default is hash/crc32's Castagnoli path (itself SSE4.2/ARMv8
// accelerated, ~22 GB/s on 8 KiB), which is also the differential
// oracle, and an arch init may swap in a carry-less-multiply folding
// kernel. Every backend returns the same value, so a slot written by
// one build verifies under any other.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the CRC32C of p continued from crc (0 to start):
// exactly crc32.Update(crc, crc32.MakeTable(crc32.Castagnoli), p).
func CRC32C(crc uint32, p []byte) uint32 { return crc32cKernel(crc, p) }

func crc32cGeneric(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// crcFold holds the folding kernel's constants, one 16-byte lane per
// fold distance d: (x^(8d+31) mod P, x^(8d−33) mod P), bit-reflected,
// the first multiplying a lane's low quadword and the second its high
// one (the extra x each reflected carry-less product carries is taken
// out of the exponents). TestCRCFoldConstants recomputes every value.
var crcFold = [12]uint64{
	0xdcb17aa4, 0xb9e02b86, // d=256: each accumulator over one 256-byte iteration
	0x740eef02, 0x9e4addf8, // d=64: one accumulator into the next
	0x1c291d04, 0xddc0152b, // d=48: lane 0 of the last accumulator into lane 3
	0x3da6d0cb, 0xba4fc28e, // d=32: lane 1 into lane 3
	0xf20c0dfe, 0x493c7d27, // d=16: lane 2 into lane 3
	0, 0, // lane 3 is the target
}
