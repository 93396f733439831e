package tier

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/fault"
	"afraid/internal/idle"
)

// runEpisodes sweeps seeds through one schedule shape and fails on any
// contract violation. Each seed is a different interleaving of the
// fuse, the workload and the migrator.
func runEpisodes(t *testing.T, base ChaosConfig, seeds int) {
	t.Helper()
	crashed, promoted, demoted, fullStripe := 0, 0, 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		st := NewChaosStack(base)
		res, err := fault.Run(seed, st, st.Plan())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		if t.Failed() {
			return
		}
		if res.Stats["fault.power_cycles"] > 0 {
			crashed++
		}
		if res.Stats["tier.promotes"] > 0 {
			promoted++
		}
		if res.Stats["tier.demotes"] > 0 {
			demoted++
		}
		if res.Stats["core.full_stripe_writes"] > 0 {
			fullStripe++
		}
	}
	// The sweep must actually exercise the machinery it claims to.
	if promoted == 0 {
		t.Fatal("no episode promoted a single extent; the schedule is vacuous")
	}
	if demoted == 0 {
		t.Fatal("no episode demoted a single extent; the schedule is vacuous")
	}
	if fullStripe == 0 {
		t.Fatal("no episode wrote a full stripe of the back store; demotes and aligned writes are not reaching it whole")
	}
	if base.PowerCut && crashed == 0 {
		t.Fatal("no episode crashed; the schedule is vacuous")
	}
}

// TestChaosCleanWorkload: no faults at all — the hybrid must be simply
// correct under a random workload with a live migrator.
func TestChaosCleanWorkload(t *testing.T) {
	runEpisodes(t, ChaosConfig{}, 12)
}

// TestChaosPowerCut: the fuse tears one device write mid-run — inside
// a mirror write, a promote, a demote or a back stripe write depending
// on the seed — and recovery must leave every acknowledged byte
// readable from exactly one consistent tier.
func TestChaosPowerCut(t *testing.T) {
	runEpisodes(t, ChaosConfig{PowerCut: true}, 25)
}

// TestChaosPowerCutMapLoss: the crash also destroys the extent map;
// recovery rebuilds residency from the slot tags and conservatively
// demotes everything.
func TestChaosPowerCutMapLoss(t *testing.T) {
	runEpisodes(t, ChaosConfig{PowerCut: true, DropTierMap: true}, 25)
}

// TestChaosFrontCopyFail: one copy of a mirror pair fail-stops
// mid-run; the survivor carries the pair with no client-visible
// effect.
func TestChaosFrontCopyFail(t *testing.T) {
	runEpisodes(t, ChaosConfig{FrontCopyFail: true}, 15)
}

// TestChaosFrontCopyFailThenCrash: the nasty compound — a copy dies,
// degraded writes land on the survivor only, then power fails. The
// persisted failed-copy mask must stop recovery from resilvering the
// stale copy over the survivor.
func TestChaosFrontCopyFailThenCrash(t *testing.T) {
	runEpisodes(t, ChaosConfig{FrontCopyFail: true, PowerCut: true}, 25)
}

// TestChaosMultiPair spreads extents over two mirror pairs to cover
// cross-pair placement under the same schedules.
func TestChaosMultiPair(t *testing.T) {
	runEpisodes(t, ChaosConfig{FrontPairs: 2, PowerCut: true}, 15)
}

// TestConcurrentWritersDuringMigration is the -race stress test:
// parallel writers on disjoint regions race the migrator (tiny
// pressure valve, aggressive idle timer, constant promote/demote
// churn), and every byte must read back exactly.
func TestConcurrentWritersDuringMigration(t *testing.T) {
	const (
		writers   = 4
		rounds    = 40
		extentSz  = int64(4 << 10)
		slotsPair = int64(4)
	)
	backNV := &core.MemNVRAM{}
	var backDevs []core.BlockDevice
	for i := 0; i < 4; i++ {
		backDevs = append(backDevs, core.NewMemDevice(64<<10))
	}
	back, err := core.Open(backDevs, backNV, core.Options{StripeUnit: 512, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	frontSize := slotsPair * (extentSz + tagSize)
	front := []core.BlockDevice{core.NewMemDevice(frontSize), core.NewMemDevice(frontSize)}
	st, err := Open(back, front, &core.MemNVRAM{}, Options{
		ExtentSize:    extentSz,
		MaxDirtyBytes: extentSz, // migrator under constant pressure
		Idle:          idle.NewTimer(time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	region := st.Capacity() / writers
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			lo, hi := int64(w)*region, int64(w+1)*region
			want := make([]byte, hi-lo)
			for r := 0; r < rounds; r++ {
				length := 1 + rng.Int63n(2*extentSz)
				if length > hi-lo {
					length = hi - lo
				}
				off := lo + rng.Int63n(hi-lo-length+1)
				p := make([]byte, length)
				rng.Read(p)
				if _, err := st.WriteContext(context.Background(), p, off); err != nil {
					errs <- fmt.Errorf("writer %d: write [%d,%d): %w", w, off, off+length, err)
					return
				}
				copy(want[off-lo:], p)
				// Read something back mid-churn, possibly mid-migration.
				roff := lo + rng.Int63n(hi-lo-length+1)
				q := make([]byte, length)
				if _, err := st.ReadContext(context.Background(), q, roff); err != nil {
					errs <- fmt.Errorf("writer %d: read [%d,%d): %w", w, roff, roff+length, err)
					return
				}
			}
			// Final read-back of the whole region.
			got := make([]byte, hi-lo)
			if _, err := st.ReadAt(got, lo); err != nil {
				errs <- fmt.Errorf("writer %d: final read: %w", w, err)
				return
			}
			for i := range got {
				if got[i] != want[i] {
					errs <- fmt.Errorf("writer %d: byte %d diverged: got %02x want %02x", w, lo+int64(i), got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	ts := st.TierStats()
	if ts.Promotes == 0 || ts.Demotes == 0 {
		t.Fatalf("stress test was vacuous: %d promotes, %d demotes", ts.Promotes, ts.Demotes)
	}
}
