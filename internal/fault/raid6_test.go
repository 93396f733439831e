package fault

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"afraid/internal/core"
	"afraid/internal/testutil"
)

// TestRaid6DoubleFailureUnderConcurrentIO drives a RAID 6 store with
// concurrent writers while injected transient faults (wrapping
// core.ErrDeviceFailed) take two members down, then repairs both disks
// while the writers keep running. Every acknowledged write must read
// back bit-exact afterwards, the damage reports must be empty (RAID 6
// keeps parity synchronously — nothing is ever exposed), and the
// repaired array's parity must verify. Run under -race this also
// checks the repair-sweep/degraded-write locking.
func TestRaid6DoubleFailureUnderConcurrentIO(t *testing.T) {
	const (
		disks   = 6
		unit    = 512
		stripes = 32
		workers = 4
		opsEach = 250
	)
	backings := make([]core.BlockDevice, disks)
	for i := range backings {
		backings[i] = core.NewMemDevice(stripes * unit)
	}
	devs := Wrap(backings, 77)
	// Two victims, tripped at different depths of the run.
	devs[1].AddRule(Rule{When: After(40), Do: Transient(nil), Max: 1})
	devs[4].AddRule(Rule{When: After(150), Do: Transient(nil), Max: 1})

	st, err := core.Open(Devices(devs), nil, core.Options{Mode: core.Raid6, StripeUnit: unit})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	capacity := st.Capacity()
	region := capacity / workers

	type worker struct {
		base int64
		ref  []byte
	}
	ws := make([]*worker, workers)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)

	for w := 0; w < workers; w++ {
		ws[w] = &worker{base: int64(w) * region, ref: make([]byte, region)}
		wg.Add(1)
		go func(w *worker, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				n := 1 + rng.Int63n(3*unit)
				if n > region {
					n = region
				}
				off := rng.Int63n(region - n + 1)
				if rng.Float64() < 0.7 {
					p := make([]byte, n)
					rng.Read(p)
					if _, err := st.WriteAt(p, w.base+off); err != nil {
						errCh <- fmt.Errorf("write [%d,%d): %w", w.base+off, w.base+off+n, err)
						return
					}
					copy(w.ref[off:], p)
				} else {
					got := make([]byte, n)
					if _, err := st.ReadAt(got, w.base+off); err != nil {
						errCh <- fmt.Errorf("read [%d,%d): %w", w.base+off, w.base+off+n, err)
						return
					}
					if !bytes.Equal(got, w.ref[off:off+n]) {
						errCh <- fmt.Errorf("read [%d,%d) diverged from acknowledged writes", w.base+off, w.base+off+n)
						return
					}
				}
			}
		}(ws[w], int64(1000+w))
	}

	// As soon as both victims are absorbed, rebuild them onto fresh
	// devices while the writers are still running, unless they are done.
	writersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(writersDone)
	}()
	testutil.Eventually(t, "both victims absorbed, or the writers done", func() bool {
		select {
		case <-writersDone:
			return true
		default:
			return len(st.DeadDisks()) == 2
		}
	})
	var repairErr error
	if dead := st.DeadDisks(); len(dead) == 2 {
		for _, i := range dead {
			report, err := st.RepairDisk(i, core.NewMemDevice(stripes*unit))
			if err == nil && len(report.Lost) != 0 {
				err = fmt.Errorf("RAID 6 repair reported loss: %+v", report.Lost)
			}
			if err != nil {
				repairErr = fmt.Errorf("repair disk %d: %w", i, err)
				break
			}
		}
	}

	<-writersDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if repairErr != nil {
		t.Fatal(repairErr)
	}

	// If the workload finished before both transients tripped (or the
	// repairer was stopped first), finish the job synchronously.
	for _, i := range []int{1, 4} {
		if devs[i].Failed() && !slices.Contains(st.DeadDisks(), i) {
			// The wrapper tripped but the store never touched it.
			if err := st.FailDisk(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, i := range st.DeadDisks() {
		rep := core.NewMemDevice(stripes * unit)
		report, err := st.RepairDisk(i, rep)
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Lost) != 0 {
			t.Fatalf("RAID 6 repair of disk %d reported loss: %+v", i, report.Lost)
		}
	}

	// Whole array healthy again: every acknowledged byte reads back and
	// both parities verify on every stripe.
	for _, w := range ws {
		got := make([]byte, region)
		if _, err := st.ReadAt(got, w.base); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w.ref) {
			t.Fatalf("region at %d diverged after double repair", w.base)
		}
	}
	bad, err := st.CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("parity inconsistent after repair: stripes %v", bad)
	}
}
