// Package bufpool is the store's buffer arena: size-classed sync.Pools
// for the []byte scratch blocks the data path churns through — stripe
// units in the scrubber and RMW write paths, reconstruction scratch in
// the recovery paths, and per-request read buffers in the network
// server. Steady-state users allocate nothing: every Get after warmup
// is a recycled buffer.
//
// Buffers are classed by capacity rounded up to a power of two between
// minClass and maxClass; requests outside that range fall back to plain
// allocation (Put drops them). Get returns a buffer of exactly the
// requested length with arbitrary contents.
package bufpool

import (
	"math/bits"
	"sync"
)

const (
	minShift = 9  // 512 B — smallest pooled class
	maxShift = 20 // 1 MiB — largest pooled class
	classes  = maxShift - minShift + 1
)

var pools [classes]sync.Pool

// classFor returns the pool index for a capacity, or -1 when the size
// is outside the pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxShift {
		return -1
	}
	shift := bits.Len(uint(n - 1)) // ceil(log2(n))
	if shift < minShift {
		shift = minShift
	}
	return shift - minShift
}

// Get returns a buffer with len == n. Its contents are arbitrary:
// callers that read before writing clear it first.
func Get(n int) []byte {
	if n == 0 {
		return nil
	}
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := pools[c].Get(); v != nil {
		w := v.(*buf)
		b := w.b
		w.b = nil
		wrapPool.Put(w)
		return b[:n]
	}
	return make([]byte, n, 1<<(c+minShift))
}

// buf wraps the slice so Put stores a pointer-shaped value and the
// sync.Pool interface conversion does not allocate.
type buf struct{ b []byte }

var wrapPool = sync.Pool{New: func() any { return new(buf) }}

// Put recycles a buffer obtained from Get. The caller must not
// touch b afterwards. Buffers whose capacity is not an exact pooled
// class (including foreign buffers) are dropped, so Put is always safe.
func Put(b []byte) {
	c := capClass(cap(b))
	if c < 0 {
		return
	}
	w := wrapPool.Get().(*buf)
	w.b = b[:cap(b)]
	pools[c].Put(w)
}

// capClass maps an exact power-of-two capacity to its class, or -1.
func capClass(c int) int {
	if c < 1<<minShift || c > 1<<maxShift || c&(c-1) != 0 {
		return -1
	}
	return bits.Len(uint(c)) - 1 - minShift
}
