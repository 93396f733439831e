package cache

import (
	"container/list"
	"testing"
	"testing/quick"
)

func TestLRUBasicEviction(t *testing.T) {
	c := NewLRU(2)
	c.Insert(1)
	c.Insert(2)
	if ev, did := c.Insert(3); !did || ev != 1 {
		t.Fatalf("insert 3 evicted (%d,%v), want (1,true)", ev, did)
	}
	if c.Peek(1) {
		t.Fatal("1 still present after eviction")
	}
	if !c.Peek(2) || !c.Peek(3) {
		t.Fatal("2 or 3 missing")
	}
}

func TestLRUPromotionOnContains(t *testing.T) {
	c := NewLRU(2)
	c.Insert(1)
	c.Insert(2)
	c.Contains(1) // promote 1; 2 becomes LRU
	if ev, did := c.Insert(3); !did || ev != 2 {
		t.Fatalf("insert 3 evicted (%d,%v), want (2,true)", ev, did)
	}
}

func TestLRUReinsertPromotes(t *testing.T) {
	c := NewLRU(2)
	c.Insert(1)
	c.Insert(2)
	c.Insert(1) // promote, no eviction
	if ev, did := c.Insert(3); !did || ev != 2 {
		t.Fatalf("insert 3 evicted (%d,%v), want (2,true)", ev, did)
	}
}

func TestLRUInvalidate(t *testing.T) {
	c := NewLRU(4)
	c.Insert(7)
	c.Invalidate(7)
	if c.Peek(7) {
		t.Fatal("7 present after invalidate")
	}
	c.Invalidate(7) // no-op
	if c.Len() != 0 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestLRUStats(t *testing.T) {
	c := NewLRU(2)
	c.Insert(1)
	c.Contains(1)
	c.Contains(2)
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d,%d", h, m)
	}
}

func TestLRUNeverExceedsCapacity(t *testing.T) {
	prop := func(keys []int64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := NewLRU(capacity)
		for _, k := range keys {
			c.Insert(k)
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestControllerWriteThenOldDataCached(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Write(0, 8<<10)
	if !c.OldDataCached(0, 8<<10) {
		t.Fatal("freshly written block not found in staging")
	}
	if c.OldDataCached(1<<20, 8<<10) {
		t.Fatal("never-written block reported cached")
	}
}

func TestControllerReadHitAfterFill(t *testing.T) {
	c := NewController(DefaultConfig())
	if c.ReadHit(16<<10, 8<<10) {
		t.Fatal("cold cache reported a hit")
	}
	c.FillRead(16<<10, 8<<10)
	if !c.ReadHit(16<<10, 8<<10) {
		t.Fatal("filled range missed")
	}
}

func TestControllerWriteInvalidatesRead(t *testing.T) {
	c := NewController(DefaultConfig())
	c.FillRead(0, 8<<10)
	c.Write(0, 8<<10)
	// Still a hit overall (staging holds it), but the read cache's copy
	// must be gone.
	if !c.ReadHit(0, 8<<10) {
		t.Fatal("write-through staging should serve the read")
	}
}

func TestControllerMultiBlockRange(t *testing.T) {
	c := NewController(DefaultConfig())
	c.FillRead(0, 8<<10) // only first block
	if c.ReadHit(0, 16<<10) {
		t.Fatal("partial fill reported full hit")
	}
	c.FillRead(8<<10, 8<<10)
	if !c.ReadHit(0, 16<<10) {
		t.Fatal("both blocks filled but miss reported")
	}
}

func TestControllerSmallCachesEvict(t *testing.T) {
	cfg := DefaultConfig() // 32 blocks of 8KB per cache
	c := NewController(cfg)
	for i := int64(0); i < 64; i++ {
		c.Write(i*8<<10, 8<<10)
	}
	if c.OldDataCached(0, 8<<10) {
		t.Fatal("block 0 should have been evicted from 256KB staging after 512KB of writes")
	}
	if !c.OldDataCached(63*8<<10, 8<<10) {
		t.Fatal("most recent block missing")
	}
}

func TestControllerZeroLengthRange(t *testing.T) {
	c := NewController(DefaultConfig())
	if !c.ReadHit(0, 0) {
		t.Fatal("empty range should trivially hit")
	}
}

func TestNewControllerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config did not panic")
		}
	}()
	NewController(Config{BlockSize: 0, ReadBytes: 1, WriteBytes: 1})
}

// TestLRUMatchesListModel drives random inserts, lookups and
// invalidations through the LRU and through a container/list model of
// the same order, and checks they agree on every eviction, on membership
// and on each block keeping its index while it is held.
func TestLRUMatchesListModel(t *testing.T) {
	prop := func(ops []uint16, capRaw uint8) bool {
		capacity := int(capRaw%40) + 1
		c := NewLRU(capacity)
		ll, at := list.New(), map[int64]*list.Element{}
		index := map[int64]int{}
		for _, op := range ops {
			block := int64(op % 97) // collide often
			switch op >> 14 {
			case 0, 1:
				ev, did := c.Insert(block)
				var wantEv int64
				wantDid := false
				if e, ok := at[block]; ok {
					ll.MoveToFront(e)
				} else {
					if ll.Len() == capacity {
						back := ll.Back()
						wantEv, wantDid = back.Value.(int64), true
						ll.Remove(back)
						delete(at, wantEv)
					}
					at[block] = ll.PushFront(block)
				}
				if ev != wantEv || did != wantDid {
					return false
				}
				if did {
					if index[block] = index[ev]; c.Index(block) != index[ev] {
						return false
					}
					delete(index, ev)
				} else if _, ok := index[block]; !ok {
					index[block] = c.Index(block)
				}
			case 2:
				if e, ok := at[block]; ok != c.Contains(block) {
					return false
				} else if ok {
					ll.MoveToFront(e)
				}
			case 3:
				c.Invalidate(block)
				if e, ok := at[block]; ok {
					ll.Remove(e)
					delete(at, block)
					delete(index, block)
				}
			}
			if c.Len() != ll.Len() {
				return false
			}
			for b, i := range index {
				if c.Index(b) != i || i < 0 || i >= capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUAllocatesOnlyAtBirth pins what lets the live store's read cache
// run without garbage: inserting, evicting, promoting and invalidating at
// capacity allocate nothing.
func TestLRUAllocatesOnlyAtBirth(t *testing.T) {
	c := NewLRU(32)
	var b int64
	allocs := testing.AllocsPerRun(1000, func() {
		c.Insert(b)
		c.Contains(b - 5)
		c.Invalidate(b - 7)
		b += 3
	})
	if allocs != 0 {
		t.Fatalf("steady-state LRU operations allocate %.1f objects each", allocs)
	}
}
