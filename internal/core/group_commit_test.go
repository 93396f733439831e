package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/nvram"
)

// slowNVRAM counts Store calls and holds each one for delay, modeling a
// marking memory whose persist latency dominates small writes. It also
// keeps the last image so tests can check what actually became durable.
type slowNVRAM struct {
	MemNVRAM
	delay  time.Duration
	stores atomic.Uint64
}

func (n *slowNVRAM) Store(img []byte) error {
	n.stores.Add(1)
	time.Sleep(n.delay)
	return n.MemNVRAM.Store(img)
}

// TestGroupCommitBatchesPersists drives many concurrent writers, each
// dirtying its own stripe, against an NVRAM slow enough that their
// marks must pile up behind the in-flight persist. Group commit then
// covers the pile with the next write: far fewer NVRAM stores than
// marks, while the final durable image still holds every mark.
func TestGroupCommitBatchesPersists(t *testing.T) {
	const (
		writers   = 8
		perWriter = 8
	)
	nv := &slowNVRAM{delay: 2 * time.Millisecond}
	devs := newDevs(5)
	s, err := Open(devs, nv, Options{Mode: Afraid, StripeUnit: testUnit, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := pattern(testUnit, byte(w))
			for i := 0; i < perWriter; i++ {
				stripe := int64(w*perWriter + i)
				if _, err := s.WriteAt(buf, stripe*4*testUnit); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	marks := uint64(writers * perWriter)
	persists := s.Stats().NVRAMPersists
	if persists != nv.stores.Load() {
		t.Fatalf("stats report %d persists, NVRAM saw %d", persists, nv.stores.Load())
	}
	if persists >= marks {
		t.Fatalf("group commit issued %d NVRAM stores for %d marks; want batching (fewer stores than marks)", persists, marks)
	}
	t.Logf("%d marks batched into %d NVRAM stores", marks, persists)

	// Every mark must be durable: the image in NVRAM matches the
	// in-memory bitmap, with all written stripes dirty.
	img, err := nv.Load()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := nvram.Deserialize(img)
	if err != nil {
		t.Fatal(err)
	}
	for st := int64(0); st < int64(marks); st++ {
		if !bm.IsMarked(st) {
			t.Fatalf("stripe %d written but not marked in the durable image", st)
		}
	}
}

// A synchronous write marks its stripe only while it is in flight: a
// single-stripe read-modify-write on Raid5 or Raid6 costs one NVRAM store
// — its mark, which also carries the previous write's in-memory clear —
// and leaves no mark behind, with parity consistent.
func TestSyncWriteCostsOneStore(t *testing.T) {
	for _, mode := range []Mode{Raid5, Raid6} {
		open := openTest
		if mode == Raid6 {
			open = openTest6
		}
		s, _ := open(t, Options{Mode: mode, DisableScrubber: true})
		for i := int64(0); i < 8; i++ {
			before := s.Stats().NVRAMPersists
			if _, err := s.WriteAt(pattern(100, byte(i)), i*s.geo.StripeDataBytes()+(i%3)*testUnit+7); err != nil {
				t.Fatal(err)
			}
			if n := s.Stats().NVRAMPersists - before; n != 1 {
				t.Fatalf("%v: a single-stripe write cost %d NVRAM stores, want 1", mode, n)
			}
			if n := s.DirtyStripes(); n != 0 {
				t.Fatalf("%v: %d stripes left marked by completed synchronous writes", mode, n)
			}
		}
		assertParityClean(t, s)
	}
}

// TestGroupCommitDurableBeforeReturn pins the mark-before-write
// invariant under group commit: by the time WriteAt returns, the
// stripe's mark is in NVRAM (not merely queued). A sequential caller
// never shares a batch, so this also covers the leader fast path.
func TestGroupCommitDurableBeforeReturn(t *testing.T) {
	nv := &slowNVRAM{}
	devs := newDevs(5)
	s, err := Open(devs, nv, Options{Mode: Afraid, StripeUnit: testUnit, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for stripe := int64(0); stripe < 4; stripe++ {
		if _, err := s.WriteAt(pattern(512, byte(stripe)), stripe*4*testUnit); err != nil {
			t.Fatal(err)
		}
		img, err := nv.Load()
		if err != nil {
			t.Fatal(err)
		}
		bm, err := nvram.Deserialize(img)
		if err != nil {
			t.Fatal(err)
		}
		if !bm.IsMarked(stripe) {
			t.Fatalf("WriteAt returned before stripe %d's mark was durable", stripe)
		}
	}

	// And the unmark side: after Flush the durable image is clean.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	img, err := nv.Load()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := nvram.Deserialize(img)
	if err != nil {
		t.Fatal(err)
	}
	if c := bm.Count(); c != 0 {
		t.Fatalf("durable image still has %d marks after Flush", c)
	}
}
