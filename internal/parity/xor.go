// Package parity implements the redundancy codecs used by the array:
// single-parity XOR (RAID 5 / AFRAID) and the GF(2^8) P+Q pair used for
// the paper's §5 RAID 6 extension.
//
// The kernels run word-wise: equal-length blocks are folded eight bytes
// at a time over uint64 lanes (encoding/binary loads, which the
// compiler lowers to single unaligned MOVs on little- and big-endian
// machines alike), with a byte tail for the remainder. The multi-source
// gather kernel XORInto folds k sources in one pass over dst, so the
// destination cacheline is loaded and stored once instead of k times.
package parity

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"afraid/internal/bufpool"
)

// wordSize is the lane width of the folding kernels.
const wordSize = 8

func xorGeneric(dst, src []byte) {
	n := len(dst)
	i := 0
	// Four uint64 lanes per iteration: the independent loads/xors
	// pipeline, and the compiler can merge them into wider vector ops.
	for ; i+4*wordSize <= n; i += 4 * wordSize {
		d := dst[i : i+4*wordSize : i+4*wordSize]
		s := src[i : i+4*wordSize : i+4*wordSize]
		v0 := binary.LittleEndian.Uint64(d[0:]) ^ binary.LittleEndian.Uint64(s[0:])
		v1 := binary.LittleEndian.Uint64(d[8:]) ^ binary.LittleEndian.Uint64(s[8:])
		v2 := binary.LittleEndian.Uint64(d[16:]) ^ binary.LittleEndian.Uint64(s[16:])
		v3 := binary.LittleEndian.Uint64(d[24:]) ^ binary.LittleEndian.Uint64(s[24:])
		binary.LittleEndian.PutUint64(d[0:], v0)
		binary.LittleEndian.PutUint64(d[8:], v1)
		binary.LittleEndian.PutUint64(d[16:], v2)
		binary.LittleEndian.PutUint64(d[24:], v3)
	}
	for ; i+wordSize <= n; i += wordSize {
		d := dst[i : i+wordSize : i+wordSize]
		v := binary.LittleEndian.Uint64(d) ^ binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(d, v)
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// XORInto folds every source into dst in a single pass: for each word
// of dst it loads the corresponding word of all k sources, xors them
// together, and stores once. Compared to k sequential one-source folds this
// halves the memory traffic on dst (one load + one store total instead
// of k of each), which is where the rebuild path's time goes once the
// per-byte arithmetic is gone. All sources must match dst's length.
func XORInto(dst []byte, srcs ...[]byte) {
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic(fmt.Sprintf("parity: XORInto length mismatch %d != %d", len(dst), len(s)))
		}
	}
	foldRange(dst, srcs, 0, len(dst))
}

// foldRange folds bytes [lo,hi) of every source into dst, which is that
// long.
func foldRange(dst []byte, srcs [][]byte, lo, hi int) {
	// Dispatch to arity-specialized folds: keeping each source in a
	// local lets the compiler hold its base pointer in a register, so
	// the inner loop is pure loads/xors/one store. Larger fan-ins fold
	// four sources per pass — dst is touched ceil(k/4) times instead of
	// k, which is still where the memory-traffic win lives.
	for len(srcs) > 4 {
		xorInto4Kernel(dst, srcs[0][lo:hi], srcs[1][lo:hi], srcs[2][lo:hi], srcs[3][lo:hi])
		srcs = srcs[4:]
	}
	switch len(srcs) {
	case 1:
		xorKernel(dst, srcs[0][lo:hi])
	case 2:
		xorInto2Kernel(dst, srcs[0][lo:hi], srcs[1][lo:hi])
	case 3:
		xorInto3Kernel(dst, srcs[0][lo:hi], srcs[1][lo:hi], srcs[2][lo:hi])
	case 4:
		xorInto4Kernel(dst, srcs[0][lo:hi], srcs[1][lo:hi], srcs[2][lo:hi], srcs[3][lo:hi])
	}
}

// The arity-specialized folds mirror xorGeneric's shape: four uint64 lanes
// per iteration, with capped per-iteration subslices so every bounds
// check hoists out of the lane loads.

func xorInto2Generic(dst, a, b []byte) {
	n := len(dst)
	i := 0
	for ; i+4*wordSize <= n; i += 4 * wordSize {
		d := dst[i : i+4*wordSize : i+4*wordSize]
		s0 := a[i : i+4*wordSize : i+4*wordSize]
		s1 := b[i : i+4*wordSize : i+4*wordSize]
		v0 := binary.LittleEndian.Uint64(d[0:]) ^ binary.LittleEndian.Uint64(s0[0:]) ^ binary.LittleEndian.Uint64(s1[0:])
		v1 := binary.LittleEndian.Uint64(d[8:]) ^ binary.LittleEndian.Uint64(s0[8:]) ^ binary.LittleEndian.Uint64(s1[8:])
		v2 := binary.LittleEndian.Uint64(d[16:]) ^ binary.LittleEndian.Uint64(s0[16:]) ^ binary.LittleEndian.Uint64(s1[16:])
		v3 := binary.LittleEndian.Uint64(d[24:]) ^ binary.LittleEndian.Uint64(s0[24:]) ^ binary.LittleEndian.Uint64(s1[24:])
		binary.LittleEndian.PutUint64(d[0:], v0)
		binary.LittleEndian.PutUint64(d[8:], v1)
		binary.LittleEndian.PutUint64(d[16:], v2)
		binary.LittleEndian.PutUint64(d[24:], v3)
	}
	for ; i+wordSize <= n; i += wordSize {
		d := dst[i : i+wordSize : i+wordSize]
		v := binary.LittleEndian.Uint64(d) ^
			binary.LittleEndian.Uint64(a[i:]) ^
			binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(d, v)
	}
	for ; i < n; i++ {
		dst[i] ^= a[i] ^ b[i]
	}
}

func xorInto3Generic(dst, a, b, c []byte) {
	n := len(dst)
	i := 0
	for ; i+4*wordSize <= n; i += 4 * wordSize {
		d := dst[i : i+4*wordSize : i+4*wordSize]
		s0 := a[i : i+4*wordSize : i+4*wordSize]
		s1 := b[i : i+4*wordSize : i+4*wordSize]
		s2 := c[i : i+4*wordSize : i+4*wordSize]
		v0 := binary.LittleEndian.Uint64(d[0:]) ^ binary.LittleEndian.Uint64(s0[0:]) ^ binary.LittleEndian.Uint64(s1[0:]) ^ binary.LittleEndian.Uint64(s2[0:])
		v1 := binary.LittleEndian.Uint64(d[8:]) ^ binary.LittleEndian.Uint64(s0[8:]) ^ binary.LittleEndian.Uint64(s1[8:]) ^ binary.LittleEndian.Uint64(s2[8:])
		v2 := binary.LittleEndian.Uint64(d[16:]) ^ binary.LittleEndian.Uint64(s0[16:]) ^ binary.LittleEndian.Uint64(s1[16:]) ^ binary.LittleEndian.Uint64(s2[16:])
		v3 := binary.LittleEndian.Uint64(d[24:]) ^ binary.LittleEndian.Uint64(s0[24:]) ^ binary.LittleEndian.Uint64(s1[24:]) ^ binary.LittleEndian.Uint64(s2[24:])
		binary.LittleEndian.PutUint64(d[0:], v0)
		binary.LittleEndian.PutUint64(d[8:], v1)
		binary.LittleEndian.PutUint64(d[16:], v2)
		binary.LittleEndian.PutUint64(d[24:], v3)
	}
	for ; i+wordSize <= n; i += wordSize {
		d := dst[i : i+wordSize : i+wordSize]
		v := binary.LittleEndian.Uint64(d) ^
			binary.LittleEndian.Uint64(a[i:]) ^
			binary.LittleEndian.Uint64(b[i:]) ^
			binary.LittleEndian.Uint64(c[i:])
		binary.LittleEndian.PutUint64(d, v)
	}
	for ; i < n; i++ {
		dst[i] ^= a[i] ^ b[i] ^ c[i]
	}
}

func xorInto4Generic(dst, a, b, c, e []byte) {
	n := len(dst)
	i := 0
	for ; i+4*wordSize <= n; i += 4 * wordSize {
		d := dst[i : i+4*wordSize : i+4*wordSize]
		s0 := a[i : i+4*wordSize : i+4*wordSize]
		s1 := b[i : i+4*wordSize : i+4*wordSize]
		s2 := c[i : i+4*wordSize : i+4*wordSize]
		s3 := e[i : i+4*wordSize : i+4*wordSize]
		v0 := binary.LittleEndian.Uint64(d[0:]) ^ binary.LittleEndian.Uint64(s0[0:]) ^ binary.LittleEndian.Uint64(s1[0:]) ^ binary.LittleEndian.Uint64(s2[0:]) ^ binary.LittleEndian.Uint64(s3[0:])
		v1 := binary.LittleEndian.Uint64(d[8:]) ^ binary.LittleEndian.Uint64(s0[8:]) ^ binary.LittleEndian.Uint64(s1[8:]) ^ binary.LittleEndian.Uint64(s2[8:]) ^ binary.LittleEndian.Uint64(s3[8:])
		v2 := binary.LittleEndian.Uint64(d[16:]) ^ binary.LittleEndian.Uint64(s0[16:]) ^ binary.LittleEndian.Uint64(s1[16:]) ^ binary.LittleEndian.Uint64(s2[16:]) ^ binary.LittleEndian.Uint64(s3[16:])
		v3 := binary.LittleEndian.Uint64(d[24:]) ^ binary.LittleEndian.Uint64(s0[24:]) ^ binary.LittleEndian.Uint64(s1[24:]) ^ binary.LittleEndian.Uint64(s2[24:]) ^ binary.LittleEndian.Uint64(s3[24:])
		binary.LittleEndian.PutUint64(d[0:], v0)
		binary.LittleEndian.PutUint64(d[8:], v1)
		binary.LittleEndian.PutUint64(d[16:], v2)
		binary.LittleEndian.PutUint64(d[24:], v3)
	}
	for ; i+wordSize <= n; i += wordSize {
		d := dst[i : i+wordSize : i+wordSize]
		v := binary.LittleEndian.Uint64(d) ^
			binary.LittleEndian.Uint64(a[i:]) ^
			binary.LittleEndian.Uint64(b[i:]) ^
			binary.LittleEndian.Uint64(c[i:]) ^
			binary.LittleEndian.Uint64(e[i:])
		binary.LittleEndian.PutUint64(d, v)
	}
	for ; i < n; i++ {
		dst[i] ^= a[i] ^ b[i] ^ c[i] ^ e[i]
	}
}

// Compute writes the XOR parity of blocks into p. All blocks and p must
// have the same length (validated before p is touched). At least one
// block is required.
func Compute(p []byte, blocks ...[]byte) {
	if len(blocks) == 0 {
		panic("parity: Compute with no blocks")
	}
	for _, b := range blocks {
		if len(b) != len(p) {
			panic("parity: Compute parity/block length mismatch")
		}
	}
	copy(p, blocks[0])
	XORInto(p, blocks[1:]...)
}

// Reconstruct recovers a single missing block given the parity block and
// the surviving data blocks, writing the result into dst. Lengths are
// validated before dst is touched.
func Reconstruct(dst, p []byte, survivors ...[]byte) {
	if len(dst) != len(p) {
		panic("parity: Reconstruct dst/parity length mismatch")
	}
	for _, b := range survivors {
		if len(b) != len(dst) {
			panic("parity: Reconstruct survivor length mismatch")
		}
	}
	copy(dst, p)
	XORInto(dst, survivors...)
}

// Update applies the RAID 5 read-modify-write parity delta in a single
// pass: p ^= oldData ^ newData. It is the two-source gather fold, so it
// rides the same dispatched kernel as XORInto.
func Update(p, oldData, newData []byte) {
	if len(p) != len(oldData) || len(p) != len(newData) {
		panic(fmt.Sprintf("parity: Update length mismatch %d/%d/%d", len(p), len(oldData), len(newData)))
	}
	xorInto2Kernel(p, oldData, newData)
}

// checkChunk is the span Check and CheckPQ verify at a time: the blocks'
// bytes are folded by the dispatched kernels into a scratch that long and
// compared with the parity's, so the scratch stays in L1 and a mismatch
// stops the check within the chunk it is in. The scratch is pooled: the
// kernels are called through variables, which would move a stack array to
// the heap.
const checkChunk = 1 << 10

// Check reports whether p equals the XOR of blocks, a chunk at a time. A
// clean verify allocates nothing.
func Check(p []byte, blocks ...[]byte) bool {
	if len(blocks) == 0 {
		panic("parity: Check with no blocks")
	}
	for _, b := range blocks {
		if len(b) != len(p) {
			panic("parity: Check parity/block length mismatch")
		}
	}
	scratch := bufpool.Get(checkChunk)
	defer bufpool.Put(scratch)
	for lo := 0; lo < len(p); lo += checkChunk {
		hi := min(lo+checkChunk, len(p))
		acc := scratch[:hi-lo]
		copy(acc, blocks[0][lo:hi])
		foldRange(acc, blocks[1:], lo, hi)
		if !bytes.Equal(acc, p[lo:hi]) {
			return false
		}
	}
	return true
}
