// Package nvram implements AFRAID's marking memory: the non-volatile
// per-stripe bitmap recording which stripes are unredundant (their
// parity needs rebuilding). The paper prices this at one bit per stripe
// — ~3 KB per GB of stored data for a 5-wide, 8 KB-stripe-unit array.
package nvram

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Bitmap is a fixed-size set of stripe numbers. The zero value is not
// usable; call NewBitmap.
type Bitmap struct {
	words   []uint64
	stripes int64
	count   int64
	failed  bool

	marks   uint64 // total Mark calls that changed state
	unmarks uint64 // total Unmark calls that changed state
}

// NewBitmap creates a marking memory covering the given stripe count.
func NewBitmap(stripes int64) *Bitmap {
	if stripes <= 0 {
		panic(fmt.Sprintf("nvram: stripe count %d must be positive", stripes))
	}
	return &Bitmap{
		words:   make([]uint64, (stripes+63)/64),
		stripes: stripes,
	}
}

// Stripes returns the number of stripes covered.
func (b *Bitmap) Stripes() int64 { return b.stripes }

// SizeBytes returns the memory footprint of the map itself — the
// paper's "cost of the marking memory".
func (b *Bitmap) SizeBytes() int64 { return int64(len(b.words)) * 8 }

func (b *Bitmap) check(stripe int64) {
	if stripe < 0 || stripe >= b.stripes {
		panic(fmt.Sprintf("nvram: stripe %d out of range [0,%d)", stripe, b.stripes))
	}
	if b.failed {
		panic("nvram: access to failed marking memory")
	}
}

// Mark sets the unredundant bit for a stripe. Re-marking an
// already-marked stripe does nothing (as in the paper). It reports
// whether the state changed.
func (b *Bitmap) Mark(stripe int64) bool {
	b.check(stripe)
	w, bit := stripe/64, uint(stripe%64)
	if b.words[w]&(1<<bit) != 0 {
		return false
	}
	b.words[w] |= 1 << bit
	b.count++
	b.marks++
	return true
}

// Unmark clears the bit after a stripe's parity has been rebuilt. It
// reports whether the state changed.
func (b *Bitmap) Unmark(stripe int64) bool {
	b.check(stripe)
	w, bit := stripe/64, uint(stripe%64)
	if b.words[w]&(1<<bit) == 0 {
		return false
	}
	b.words[w] &^= 1 << bit
	b.count--
	b.unmarks++
	return true
}

// IsMarked reports whether a stripe is unredundant.
func (b *Bitmap) IsMarked(stripe int64) bool {
	b.check(stripe)
	return b.words[stripe/64]&(1<<uint(stripe%64)) != 0
}

// Count returns the number of marked stripes.
func (b *Bitmap) Count() int64 {
	if b.failed {
		panic("nvram: access to failed marking memory")
	}
	return b.count
}

// Next returns the first marked stripe at or after from, wrapping past
// the end, and whether any marked stripe exists. Scanning from a moving
// cursor gives the rebuild task a cheap round-robin order that
// naturally coalesces adjacent dirty stripes.
func (b *Bitmap) Next(from int64) (int64, bool) {
	if b.failed {
		panic("nvram: access to failed marking memory")
	}
	if b.count == 0 {
		return 0, false
	}
	if from < 0 || from >= b.stripes {
		from = 0
	}
	// Scan [from, end), then [0, from).
	if s, ok := b.scan(from, b.stripes); ok {
		return s, true
	}
	return b.scan(0, from)
}

// scan finds the first set bit in [lo, hi).
func (b *Bitmap) scan(lo, hi int64) (int64, bool) {
	if lo >= hi {
		return 0, false
	}
	w := lo / 64
	// Mask off bits below lo in the first word.
	word := b.words[w] &^ ((1 << uint(lo%64)) - 1)
	for {
		if word != 0 {
			s := w*64 + int64(bits.TrailingZeros64(word))
			if s < hi {
				return s, true
			}
			return 0, false
		}
		w++
		if w*64 >= hi {
			return 0, false
		}
		word = b.words[w]
	}
}

// Marked returns all marked stripes in ascending order. Intended for
// tests and recovery scans, not hot paths.
func (b *Bitmap) Marked() []int64 {
	if b.failed {
		panic("nvram: access to failed marking memory")
	}
	out := make([]int64, 0, b.count)
	for wi, word := range b.words {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			out = append(out, int64(wi)*64+int64(bit))
			word &^= 1 << uint(bit)
		}
	}
	return out
}

// Stats returns the number of state-changing marks and unmarks.
func (b *Bitmap) Stats() (marks, unmarks uint64) { return b.marks, b.unmarks }

// Fail simulates a marking-memory failure: the contents are lost. The
// recovery procedure (§3.1) is to rebuild parity for the whole array.
// Subsequent accesses panic until Reset is called.
func (b *Bitmap) Fail() { b.failed = true }

// Failed reports whether the memory has failed.
func (b *Bitmap) Failed() bool { return b.failed }

// Reset clears the failure flag and all marks, modeling replacement of
// the memory (after which a full-array parity rebuild is required).
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.count = 0
	b.failed = false
}

// Serialize encodes the bitmap for persistence (used by the functional
// store to survive crashes). Format: stripes count, then words,
// little-endian.
func (b *Bitmap) Serialize() []byte {
	return b.AppendTo(make([]byte, 0, 8+len(b.words)*8))
}

// AppendTo appends the Serialize encoding to dst, so a caller that
// stores an image per change can reuse one buffer for all of them.
func (b *Bitmap) AppendTo(dst []byte) []byte {
	if b.failed {
		panic("nvram: serializing failed marking memory")
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(b.stripes))
	for _, w := range b.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Deserialize reconstructs a bitmap from Serialize output.
func Deserialize(data []byte) (*Bitmap, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("nvram: truncated image (%d bytes)", len(data))
	}
	stripes := int64(binary.LittleEndian.Uint64(data))
	if stripes <= 0 {
		return nil, fmt.Errorf("nvram: invalid stripe count %d", stripes)
	}
	// Validate before allocating: a corrupt header must not drive a
	// huge allocation.
	words := (stripes + 63) / 64
	if int64(len(data)) != 8+words*8 {
		return nil, fmt.Errorf("nvram: image length %d does not match %d stripes", len(data), stripes)
	}
	b := NewBitmap(stripes)
	for i := range b.words {
		b.words[i] = binary.LittleEndian.Uint64(data[8+i*8:])
		b.count += int64(bits.OnesCount64(b.words[i]))
	}
	// Reject garbage bits beyond the last stripe.
	if rem := stripes % 64; rem != 0 {
		last := b.words[len(b.words)-1]
		if last>>uint(rem) != 0 {
			return nil, fmt.Errorf("nvram: image has bits set beyond stripe %d", stripes)
		}
	}
	return b, nil
}
