package parity

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// stdCRC32C is the oracle: hash/crc32 itself, not the package's own
// fallback.
func stdCRC32C(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, crc32.MakeTable(crc32.Castagnoli), p)
}

// TestCRC32CMatchesStdlib holds the dispatched CRC32C to hash/crc32 at
// every length up to a few folding iterations past the kernel's 256-byte
// block, at unit sizes either side by one, at every base offset within a
// cache line, from a zero and a random register, and split in two.
func TestCRC32CMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := make([]int, 0, 1110)
	for n := 0; n <= 1100; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range []int{4 << 10, 8 << 10, 64 << 10} {
		lengths = append(lengths, n-1, n, n+1)
	}
	back := make([]byte, 64<<10+1+64)
	fill(back, 7)
	for _, n := range lengths {
		for off := 0; off < 64; off++ {
			p := back[off : off+n]
			for _, crc := range []uint32{0, rng.Uint32()} {
				want := stdCRC32C(crc, p)
				if got := CRC32C(crc, p); got != want {
					t.Fatalf("CRC32C(%#x, n=%d off=%d) = %#x, hash/crc32 %#x", crc, n, off, got, want)
				}
				k := rng.Intn(n + 1)
				if got := CRC32C(CRC32C(crc, p[:k]), p[k:]); got != want {
					t.Fatalf("CRC32C(%#x, n=%d off=%d) split at %d = %#x, one shot %#x", crc, n, off, k, got, want)
				}
			}
		}
	}
}

// FuzzCRC32C differential-fuzzes the dispatched CRC32C against
// hash/crc32 at arbitrary contents, lengths, registers, base offsets and
// split points.
func FuzzCRC32C(f *testing.F) {
	f.Add([]byte("123456789"), uint32(0), uint8(0), uint16(4))
	f.Add(make([]byte, 256), uint32(0xdeadbeef), uint8(1), uint16(0))
	f.Add(make([]byte, 513), uint32(0xffffffff), uint8(63), uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, crc uint32, off uint8, split uint16) {
		o := int(off % 64)
		back := make([]byte, len(data)+64)
		copy(back[o:], data)
		p := back[o : o+len(data)]
		want := stdCRC32C(crc, p)
		if got := CRC32C(crc, p); got != want {
			t.Fatalf("CRC32C(%#x, n=%d off=%d) = %#x, hash/crc32 %#x", crc, len(p), o, got, want)
		}
		k := int(split) % (len(p) + 1)
		if got := CRC32C(CRC32C(crc, p[:k]), p[k:]); got != want {
			t.Fatalf("CRC32C(%#x, n=%d off=%d) split at %d = %#x, one shot %#x", crc, len(p), o, k, got, want)
		}
	})
}

// xPowModP returns x^n mod P for the Castagnoli polynomial, bit-reflected
// (bit 31 is x^0), one multiplication by x at a time.
func xPowModP(n int) uint32 {
	r := uint32(1) << 31
	for ; n > 0; n-- {
		if r&1 != 0 {
			r = r>>1 ^ crc32.Castagnoli
		} else {
			r >>= 1
		}
	}
	return r
}

// TestCRCFoldConstants recomputes every constant the folding kernel
// loads from its fold distance, so none is taken on faith.
func TestCRCFoldConstants(t *testing.T) {
	dists := []int{256, 64, 48, 32, 16} // crcFold's lanes but the last
	for i, d := range dists {
		lo, hi := uint64(xPowModP(8*d+31)), uint64(xPowModP(8*d-33))
		if crcFold[2*i] != lo || crcFold[2*i+1] != hi {
			t.Errorf("d=%d: crcFold has %#x/%#x, x^(8d+31)/x^(8d-33) mod P are %#x/%#x", d, crcFold[2*i], crcFold[2*i+1], lo, hi)
		}
	}
	if last := crcFold[2*len(dists):]; len(last) != 2 || last[0] != 0 || last[1] != 0 {
		t.Errorf("the target lane's constants are %#x, want two zeroes", last)
	}
}
