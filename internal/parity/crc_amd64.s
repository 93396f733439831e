//go:build amd64 && !noasm

#include "textflag.h"

// CRC32C by carry-less-multiply folding (bit-reflected domain). Four ZMM
// accumulators hold 256 bytes, sixteen 128-bit lanes; each iteration
// multiplies every lane's low and high quadword by x^(8d+31) and
// x^(8d−33) mod P for d = 256 and XORs the product halves into the
// next 256 bytes, so the register stays congruent to the message so far
// without ever being reduced. The accumulators then fold into one at a
// 64-byte distance, its lanes into the last at 48, 32 and 16 bytes, and
// two CRC32Q reduce the last 128 bits: lo·x^96 + hi·x^32 mod P. The
// constants are crcFold (crc.go), one 16-byte lane per distance.
// Requires n > 0 and n % 256 == 0; crc is the inverted register.

// func crc32cAVX512(crc uint32, p *byte, n int, k *[12]uint64) uint32
TEXT ·crc32cAVX512(SB), NOSPLIT, $0-36
	MOVL crc+0(FP), AX
	MOVQ p+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ k+24(FP), DX

	// The register goes into the message's first four bytes.
	VMOVD     AX, X4
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORQ    Z4, Z0, Z0
	ADDQ      $256, SI
	SUBQ      $256, CX
	JZ        reduce

	VBROADCASTI32X4 (DX), Z4

loop256:
	VPCLMULQDQ $0x00, Z4, Z0, Z5
	VPCLMULQDQ $0x11, Z4, Z0, Z0
	VPTERNLOGD $0x96, (SI), Z5, Z0
	VPCLMULQDQ $0x00, Z4, Z1, Z6
	VPCLMULQDQ $0x11, Z4, Z1, Z1
	VPTERNLOGD $0x96, 64(SI), Z6, Z1
	VPCLMULQDQ $0x00, Z4, Z2, Z7
	VPCLMULQDQ $0x11, Z4, Z2, Z2
	VPTERNLOGD $0x96, 128(SI), Z7, Z2
	VPCLMULQDQ $0x00, Z4, Z3, Z8
	VPCLMULQDQ $0x11, Z4, Z3, Z3
	VPTERNLOGD $0x96, 192(SI), Z8, Z3
	ADDQ       $256, SI
	SUBQ       $256, CX
	JNZ        loop256

reduce:
	// Z0 into Z1, Z1 into Z2, Z2 into Z3: 64 bytes apart, lane by lane.
	VBROADCASTI32X4 16(DX), Z4
	VPCLMULQDQ      $0x00, Z4, Z0, Z5
	VPCLMULQDQ      $0x11, Z4, Z0, Z0
	VPTERNLOGD      $0x96, Z5, Z0, Z1
	VPCLMULQDQ      $0x00, Z4, Z1, Z5
	VPCLMULQDQ      $0x11, Z4, Z1, Z1
	VPTERNLOGD      $0x96, Z5, Z1, Z2
	VPCLMULQDQ      $0x00, Z4, Z2, Z5
	VPCLMULQDQ      $0x11, Z4, Z2, Z2
	VPTERNLOGD      $0x96, Z5, Z2, Z3

	// Lanes 0, 1, 2 of Z3 forward 48, 32, 16 bytes onto lane 3; the
	// constant's lane 3 is zero, so lane 3 of the products is too.
	VMOVDQU64     32(DX), Z4
	VPCLMULQDQ    $0x00, Z4, Z3, Z5
	VPCLMULQDQ    $0x11, Z4, Z3, Z6
	VEXTRACTI32X4 $3, Z3, X7
	VPXORQ        Z6, Z5, Z5
	VEXTRACTI64X4 $1, Z5, Y6
	VPXORQ        Y6, Y5, Y5
	VEXTRACTI32X4 $1, Y5, X6
	VPTERNLOGD    $0x96, X6, X5, X7

	VMOVQ   X7, AX
	VPEXTRQ $1, X7, BX
	XORL    DX, DX
	CRC32Q  AX, DX
	CRC32Q  BX, DX
	VZEROUPPER
	MOVL    DX, ret+32(FP)
	RET
