package bench

import (
	"bytes"
	"encoding/binary"
)

const golden = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// fillBlock writes the content of block blk at version ver into p: a
// Weyl sequence whose start is derived from (key, blk, ver), so any
// stale, misplaced or torn block differs from what its reader expects.
// Version 0 means never written and is all zeros.
func fillBlock(p []byte, key uint64, blk int64, ver uint32) {
	if ver == 0 {
		clear(p)
		return
	}
	x := mix64(key ^ uint64(blk)*golden ^ uint64(ver)<<44)
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], x)
		x += golden
	}
}

// shadow is one client's model of its own region: the version of the
// last acknowledged write of every block. A region has one writer, so
// the shadow needs no lock and a read has exactly one right answer.
type shadow struct {
	key     uint64
	base    int64 // byte offset of the region in the store
	block   int64 // bytes per block; every op covers whole blocks
	ver     []uint32
	scratch []byte
}

func newShadow(key uint64, base, length, block int64) *shadow {
	return &shadow{key: key, base: base, block: block, ver: make([]uint32, length/block)}
}

func (s *shadow) end() int64 { return s.base + int64(len(s.ver))*s.block }

// fill writes into p what the blocks at off hold delta writes from now:
// 0 is what a read must return, 1 is the payload of the next write.
func (s *shadow) fill(p []byte, off int64, delta uint32) {
	for i := int64(0); i < int64(len(p)); i += s.block {
		blk := (off + i) / s.block
		fillBlock(p[i:i+s.block], s.key, blk, s.ver[blk-s.base/s.block]+delta)
	}
}

// commit records that the write of n bytes at off was acknowledged.
func (s *shadow) commit(n int, off int64) {
	for i := int64(0); i < int64(n); i += s.block {
		s.ver[(off+i-s.base)/s.block]++
	}
}

// check reports whether p, read at off, is what the last acknowledged
// writes left there.
func (s *shadow) check(p []byte, off int64) bool {
	if len(s.scratch) < len(p) {
		s.scratch = make([]byte, len(p))
	}
	want := s.scratch[:len(p)]
	s.fill(want, off, 0)
	return bytes.Equal(p, want)
}

// prefill writes version 1 of every block of the region through w in
// chunk-sized writes and records it.
func (s *shadow) prefill(w target, chunk int64) error {
	buf := make([]byte, chunk)
	for off := s.base; off < s.end(); off += chunk {
		n := min(chunk, s.end()-off)
		s.fill(buf[:n], off, 1)
		if _, err := w.WriteAt(buf[:n], off); err != nil {
			return err
		}
		s.commit(int(n), off)
	}
	return nil
}
