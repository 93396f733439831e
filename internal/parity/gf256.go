package parity

import (
	"bytes"

	"afraid/internal/bufpool"
)

// GF(2^8) arithmetic with the standard RAID 6 / Reed-Solomon polynomial
// x^8+x^4+x^3+x^2+1 (0x11d), under which 2 is a primitive element, using
// log/antilog tables generated at init time. This supports the P+Q
// (RAID 6) codec for the paper's §5 extension: P = sum(d_i),
// Q = sum(g^i * d_i) with generator g = 2.
//
// The bulk kernels never touch the log/antilog tables: each coefficient
// c selects one 256-byte row of the full multiplication table, and the
// inner loops are a single branch-free lookup-and-xor per byte. The
// fused kernels (foldPQ, mulUpdate) make one pass over the source for
// both parities, halving the source traffic of the naive two-call shape.

var (
	gfExp [512]byte // g^i for i in [0,510), doubled to avoid mod 255
	gfLog [256]byte // log_g(x) for x != 0

	// gfMulTab[c][x] = c*x over GF(2^8). 64 KiB, built once at init;
	// row c is the kernel for "multiply a block by c".
	gfMulTab [256][256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		// multiply x by the generator 2 in GF(2^8)
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= 0x1d
		}
	}
	for i := 255; i < 510; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := 1; c < 256; c++ {
		lc := int(gfLog[c])
		row := &gfMulTab[c]
		for s := 1; s < 256; s++ {
			row[s] = gfExp[lc+int(gfLog[s])]
		}
	}
}

// gfMul multiplies two field elements.
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

// gfPow returns g^n for the generator g=2.
func gfPow(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return gfExp[n]
}

// gfInv returns the multiplicative inverse.
func gfInv(a byte) byte {
	if a == 0 {
		panic("parity: GF inverse of zero")
	}
	return gfExp[255-int(gfLog[a])]
}

// mulInto computes dst ^= c * src over GF(2^8) bytes.
func mulInto(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("parity: mulInto length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		xorKernel(dst, src)
		return
	}
	gfMulXorKernel(dst, src, c)
}

func gfMulXorGeneric(dst, src []byte, c byte) {
	row := &gfMulTab[c]
	dst = dst[:len(src)] // hoist the bounds check out of the loop
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

// foldPQ accumulates one data block into both parities in a single pass
// over src: p ^= src, q ^= c*src. The block is read once for both.
func foldPQ(p, q, src []byte, c byte) {
	gfFoldPQKernel(p, q, src, c)
}

func foldPQGeneric(p, q, src []byte, c byte) {
	row := &gfMulTab[c]
	p = p[:len(src)]
	q = q[:len(src)]
	for i, s := range src {
		p[i] ^= s
		q[i] ^= row[s]
	}
}

// ComputePQ writes the RAID 6 P and Q parity blocks for the data blocks.
// Block i contributes g^i to Q. All blocks, p, and q must share a
// length, validated before either output is touched.
func ComputePQ(p, q []byte, blocks ...[]byte) {
	if len(blocks) == 0 {
		panic("parity: ComputePQ with no blocks")
	}
	if len(blocks) > 255 {
		panic("parity: ComputePQ supports at most 255 data blocks")
	}
	if len(p) != len(q) {
		panic("parity: ComputePQ p/q length mismatch")
	}
	for _, b := range blocks {
		if len(b) != len(p) {
			panic("parity: ComputePQ parity/block length mismatch")
		}
	}
	// Block 0 contributes g^0 = 1 to both parities: seed by copy instead
	// of zeroing and folding.
	copy(p, blocks[0])
	copy(q, blocks[0])
	for i := 1; i < len(blocks); i++ {
		foldPQ(p, q, blocks[i], gfPow(i))
	}
}

// mulUpdate computes q ^= c * (oldData ^ newData) in one pass, without
// materializing the delta — the fused RAID 6 read-modify-write kernel.
func mulUpdate(q, oldData, newData []byte, c byte) {
	if len(q) != len(oldData) || len(q) != len(newData) {
		panic("parity: mulUpdate length mismatch")
	}
	gfMulUpdKernel(q, oldData, newData, c)
}

func mulUpdateGeneric(q, oldData, newData []byte, c byte) {
	row := &gfMulTab[c]
	oldData = oldData[:len(q)]
	newData = newData[:len(q)]
	for i := range q {
		q[i] ^= row[oldData[i]^newData[i]]
	}
}

// UpdateQ applies the read-modify-write delta to a Q parity block for
// data block idx: Q ^= g^idx * (old ^ new). The RAID 6 analogue of
// Update. Allocation-free: the delta is folded in flight.
func UpdateQ(q, oldData, newData []byte, idx int) {
	mulUpdate(q, oldData, newData, gfPow(idx))
}

// CheckPQ reports whether p and q are consistent with blocks, a chunk at
// a time like Check: both accumulators are folded by the fused P+Q
// kernel, and a clean verify allocates nothing.
func CheckPQ(p, q []byte, blocks ...[]byte) bool {
	if len(blocks) == 0 {
		panic("parity: CheckPQ with no blocks")
	}
	if len(p) != len(q) {
		panic("parity: CheckPQ p/q length mismatch")
	}
	for _, b := range blocks {
		if len(b) != len(p) {
			panic("parity: CheckPQ parity/block length mismatch")
		}
	}
	scratch := bufpool.Get(2 * checkChunk)
	defer bufpool.Put(scratch)
	for lo := 0; lo < len(p); lo += checkChunk {
		hi := min(lo+checkChunk, len(p))
		tp, tq := scratch[:hi-lo], scratch[checkChunk:checkChunk+hi-lo]
		copy(tp, blocks[0][lo:hi])
		copy(tq, blocks[0][lo:hi])
		for i := 1; i < len(blocks); i++ {
			foldPQ(tp, tq, blocks[i][lo:hi], gfPow(i))
		}
		if !bytes.Equal(tp, p[lo:hi]) || !bytes.Equal(tq, q[lo:hi]) {
			return false
		}
	}
	return true
}
