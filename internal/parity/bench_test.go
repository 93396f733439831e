package parity

import (
	"fmt"
	"testing"
)

// BenchmarkXORKernel measures the XOR fold in bytes/s (the ns/op column
// divided into B/op gives GB/s) across the shapes the store uses:
// naive is the seed byte loop, word the uint64-lane kernel, and
// gather4 the one-pass multi-source fold over four 'data units'
// (SetBytes counts all source bytes, matching the memory actually
// folded per op).
func BenchmarkXORKernel(b *testing.B) {
	for _, size := range []int{512, 8 << 10, 64 << 10} {
		name := fmt.Sprintf("%dB", size)
		if size >= 1024 {
			name = fmt.Sprintf("%dK", size>>10)
		}
		dst := make([]byte, size)
		srcs := make([][]byte, 4)
		for i := range srcs {
			srcs[i] = make([]byte, size)
			fill(srcs[i], uint64(i+1))
		}

		b.Run("naive/"+name, func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				xorNaive(dst, srcs[0])
			}
		})
		b.Run("word/"+name, func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				XOR(dst, srcs[0])
			}
		})
		b.Run("gather4/"+name, func(b *testing.B) {
			b.SetBytes(int64(4 * size))
			for i := 0; i < b.N; i++ {
				XORInto(dst, srcs...)
			}
		})
		b.Run("sequential4/"+name, func(b *testing.B) {
			b.SetBytes(int64(4 * size))
			for i := 0; i < b.N; i++ {
				for _, s := range srcs {
					XOR(dst, s)
				}
			}
		})
	}
}

// BenchmarkGFKernel measures the GF(2^8) bulk kernels: the single
// mul-table row fold and the fused P+Q pass.
func BenchmarkGFKernel(b *testing.B) {
	size := 8 << 10
	src := make([]byte, size)
	fill(src, 1)
	p := make([]byte, size)
	q := make([]byte, size)

	b.Run("mulInto/8K", func(b *testing.B) {
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			mulInto(q, src, 29)
		}
	})
	b.Run("foldPQ/8K", func(b *testing.B) {
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			foldPQ(p, q, src, 29)
		}
	})
	b.Run("updateQ/8K", func(b *testing.B) {
		b.SetBytes(int64(size))
		old := make([]byte, size)
		fill(old, 2)
		for i := 0; i < b.N; i++ {
			UpdateQ(q, old, src, 3)
		}
	})
}

// BenchmarkCheck measures parity verification over four 8 KiB data units
// (SetBytes counts the data and parity bytes read): word is the scalar
// loop Check used to be, check and checkPQ the chunked folds through the
// dispatched kernels.
func BenchmarkCheck(b *testing.B) {
	const size = 8 << 10
	blocks := make([][]byte, 4)
	for i := range blocks {
		blocks[i] = make([]byte, size)
		fill(blocks[i], uint64(i+1))
	}
	p, q := make([]byte, size), make([]byte, size)
	ComputePQ(p, q, blocks...)
	run := func(name string, units int, check func() bool) {
		b.Run(name+"/8K", func(b *testing.B) {
			b.SetBytes(int64(units * size))
			for i := 0; i < b.N; i++ {
				if !check() {
					b.Fatal("clean parity rejected")
				}
			}
		})
	}
	run("word", 5, func() bool { return checkWord(p, blocks...) })
	run("check", 5, func() bool { return Check(p, blocks...) })
	run("checkPQ", 6, func() bool { return CheckPQ(p, q, blocks...) })
}

// BenchmarkCRC32C measures the CRC32C of one stripe unit and of a 64 KiB
// span: stdlib is hash/crc32's Castagnoli path (the fallback), dispatched
// is CRC32C as core calls it.
func BenchmarkCRC32C(b *testing.B) {
	for _, size := range []int{8 << 10, 64 << 10} {
		p := make([]byte, size)
		fill(p, 1)
		name := fmt.Sprintf("%dK", size>>10)
		b.Run("stdlib/"+name, func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				crc32cGeneric(0, p)
			}
		})
		b.Run("dispatched/"+name, func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				CRC32C(0, p)
			}
		})
	}
}
