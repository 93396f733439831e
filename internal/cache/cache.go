// Package cache holds the array controller's caches in the paper's
// deliberately small configuration: a 256 KB write-through staging area
// and a 256 KB read cache with no readahead.
//
// LRU is the one eviction order of both places the repository has such a
// cache. The performance simulator (internal/array, internal/exp) keeps
// only block *presence* in a Controller — a hit avoids a pre-read in the
// RAID 5 read-modify-write path — so its caches hold no data. The live
// store (internal/core) keeps the read cache's contents: a write-through
// cache of client stripe units sized by DefaultConfig's ReadBytes, whose
// buffers it indexes by LRU.Index. The functional store's write-absorbing
// layer is internal/tier, a mirrored write-back front tier with persisted
// residency and real crash-recovery semantics; nothing here stages writes
// for it.
package cache

import "fmt"

// LRU is a fixed-capacity set of block numbers with least-recently-used
// eviction. Every block it holds has an index in [0, Capacity) that stays
// its own for as long as it is held — a block Insert admits takes the
// index of the one it evicts — so a caller can keep each block's data in a
// slice. It allocates only in NewLRU.
type LRU struct {
	nodes      []lruNode // by index; prev and next link the recency order
	head, tail int32     // most and least recently used node, -1 when empty
	free       int32     // the first node holding no block, linked through next
	n          int

	// table finds a block's node: open addressing with linear probing, a
	// node's index + 1 in its slot and 0 in an empty one. It has at least
	// twice as many slots as the LRU has nodes.
	table []int32
	shift uint // a block's home slot is the top bits of its hash

	hits   uint64
	misses uint64
}

type lruNode struct {
	block      int64
	prev, next int32
}

// NewLRU creates a cache holding up to capacity blocks (>= 1).
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		panic(fmt.Sprintf("cache: capacity %d must be >= 1", capacity))
	}
	slots, shift := 2, uint(63)
	for slots < 2*capacity {
		slots, shift = slots*2, shift-1
	}
	c := &LRU{nodes: make([]lruNode, capacity), table: make([]int32, slots), shift: shift}
	c.Reset()
	return c
}

// Capacity returns the block capacity.
func (c *LRU) Capacity() int { return len(c.nodes) }

// Len returns the number of cached blocks.
func (c *LRU) Len() int { return c.n }

// Contains reports membership and records a hit or miss, promoting the
// block on a hit.
func (c *LRU) Contains(block int64) bool {
	if _, i := c.find(block); i >= 0 {
		c.toFront(i)
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Peek reports membership without promoting or counting.
func (c *LRU) Peek(block int64) bool { return c.Index(block) >= 0 }

// Index returns the index of a cached block, or -1 when it is not cached,
// without promoting or counting.
func (c *LRU) Index(block int64) int {
	_, i := c.find(block)
	return int(i)
}

// Insert adds a block (promoting it if present), evicting the LRU block
// when full. It returns the evicted block and whether an eviction
// happened.
func (c *LRU) Insert(block int64) (evicted int64, did bool) {
	if _, i := c.find(block); i >= 0 {
		c.toFront(i)
		return 0, false
	}
	i := c.free
	if c.n == len(c.nodes) {
		i = c.tail
		evicted, did = c.nodes[i].block, true
		c.remove(i)
	}
	c.free = c.nodes[i].next
	c.n++
	c.nodes[i].block = block
	c.pushFront(i)
	pos, _ := c.find(block)
	c.table[pos] = i + 1
	return evicted, did
}

// Invalidate removes a block if present.
func (c *LRU) Invalidate(block int64) {
	if _, i := c.find(block); i >= 0 {
		c.remove(i)
	}
}

// Reset empties the cache. The hit and miss counts stay.
func (c *LRU) Reset() {
	clear(c.table)
	for i := range c.nodes {
		c.nodes[i].next = int32(i + 1)
	}
	c.nodes[len(c.nodes)-1].next = -1
	c.head, c.tail, c.free, c.n = -1, -1, 0, 0
}

// Stats returns (hits, misses) accumulated by Contains.
func (c *LRU) Stats() (hits, misses uint64) { return c.hits, c.misses }

// HitRate returns the fraction of Contains calls that hit.
func (c *LRU) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// home is the table slot a block's probe starts from (Fibonacci hashing).
func (c *LRU) home(block int64) uint { return uint(uint64(block) * 0x9E3779B97F4A7C15 >> c.shift) }

// find returns the slot holding block and its node, or the empty slot that
// ends its probe and -1.
func (c *LRU) find(block int64) (pos uint, i int32) {
	mask := uint(len(c.table) - 1)
	for pos = c.home(block); ; pos = (pos + 1) & mask {
		e := c.table[pos]
		if e == 0 {
			return pos, -1
		}
		if c.nodes[e-1].block == block {
			return pos, e - 1
		}
	}
}

// remove drops node i's block: out of the recency order, out of the table
// (each later entry of its probe run shifted back, so no probe meets a
// hole before its block), and onto the free list.
func (c *LRU) remove(i int32) {
	c.unlink(i)
	mask := uint(len(c.table) - 1)
	hole, _ := c.find(c.nodes[i].block)
	for next := (hole + 1) & mask; c.table[next] != 0; next = (next + 1) & mask {
		// The entry at next may fill the hole if the hole lies on its probe
		// path: from its home slot to next.
		if home := c.home(c.nodes[c.table[next]-1].block); (next-home)&mask >= (next-hole)&mask {
			c.table[hole], hole = c.table[next], next
		}
	}
	c.table[hole] = 0
	c.nodes[i].next = c.free
	c.free = i
	c.n--
}

func (c *LRU) pushFront(i int32) {
	c.nodes[i].prev, c.nodes[i].next = -1, c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *LRU) unlink(i int32) {
	nd := &c.nodes[i]
	if nd.prev >= 0 {
		c.nodes[nd.prev].next = nd.next
	} else {
		c.head = nd.next
	}
	if nd.next >= 0 {
		c.nodes[nd.next].prev = nd.prev
	} else {
		c.tail = nd.prev
	}
}

func (c *LRU) toFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// Controller bundles the paper's two array caches, indexed by array
// block number (client address / block size).
type Controller struct {
	blockSize int64
	read      *LRU
	write     *LRU
}

// Config sizes the controller caches in bytes.
type Config struct {
	BlockSize  int64 // cache granularity, typically the stripe unit
	ReadBytes  int64 // read cache size (paper: 256 KB)
	WriteBytes int64 // write staging size (paper: 256 KB, write-through)
}

// DefaultConfig returns the paper's configuration for an 8 KB stripe
// unit.
func DefaultConfig() Config {
	return Config{BlockSize: 8 << 10, ReadBytes: 256 << 10, WriteBytes: 256 << 10}
}

// NewController builds the cache pair.
func NewController(cfg Config) *Controller {
	if cfg.BlockSize <= 0 {
		panic(fmt.Sprintf("cache: block size %d must be positive", cfg.BlockSize))
	}
	rb := int(cfg.ReadBytes / cfg.BlockSize)
	wb := int(cfg.WriteBytes / cfg.BlockSize)
	if rb < 1 || wb < 1 {
		panic("cache: cache sizes must hold at least one block")
	}
	return &Controller{
		blockSize: cfg.BlockSize,
		read:      NewLRU(rb),
		write:     NewLRU(wb),
	}
}

// blockOf returns the block number containing addr.
func (c *Controller) blockOf(addr int64) int64 { return addr / c.blockSize }

// blocksOf enumerates block numbers overlapping [addr, addr+length).
func (c *Controller) blocksOf(addr, length int64) []int64 {
	if length <= 0 {
		return nil
	}
	first := c.blockOf(addr)
	last := c.blockOf(addr + length - 1)
	out := make([]int64, 0, last-first+1)
	for b := first; b <= last; b++ {
		out = append(out, b)
	}
	return out
}

// ReadHit reports whether the whole range is served from either cache
// (read hits in the array were rare in the traced systems; the paper's
// caches are deliberately small).
func (c *Controller) ReadHit(addr, length int64) bool {
	hit := true
	for _, b := range c.blocksOf(addr, length) {
		inWrite := c.write.Peek(b)
		if !c.read.Contains(b) && !inWrite {
			hit = false
		}
	}
	return hit
}

// FillRead records that the range was read from disk into the read cache.
func (c *Controller) FillRead(addr, length int64) {
	for _, b := range c.blocksOf(addr, length) {
		c.read.Insert(b)
	}
}

// Write records a client write passing through the staging buffer
// (write-through: it is also sent to disk by the caller).
func (c *Controller) Write(addr, length int64) {
	for _, b := range c.blocksOf(addr, length) {
		c.write.Insert(b)
		// Keep the read cache coherent: the staged copy is newest.
		c.read.Invalidate(b)
	}
}

// OldDataCached reports whether the pre-image of the whole range is
// available in the controller (avoiding the old-data pre-read of the
// RAID 5 small-update protocol).
func (c *Controller) OldDataCached(addr, length int64) bool {
	hit := true
	for _, b := range c.blocksOf(addr, length) {
		if !c.write.Contains(b) && !c.read.Peek(b) {
			hit = false
		}
	}
	return hit
}

// ReadStats returns the read cache's (hits, misses).
func (c *Controller) ReadStats() (uint64, uint64) { return c.read.Stats() }
