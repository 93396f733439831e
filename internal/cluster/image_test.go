package cluster

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/fault"
)

// countNode records every read it serves, so a test can say which bytes
// a stripe operation moved from which node, and how often.
type countNode struct {
	Node
	mu    sync.Mutex
	reads [][2]int64 // off, len
}

func (n *countNode) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	n.mu.Lock()
	n.reads = append(n.reads, [2]int64{off, int64(len(p))})
	n.mu.Unlock()
	return n.Node.ReadAtContext(ctx, p, off)
}

func (n *countNode) take() [][2]int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.reads
	n.reads = nil
	return r
}

// A degraded read moves each survivor once: a sub-unit read of the absent
// unit reads exactly that byte range of every other unit and of parity; a
// read of the whole stripe reads every surviving unit once, whole, and
// solves the absent one from those — not the survivors once for themselves
// and again for the solve.
func TestDegradedReadMovesEachSurvivorOnce(t *testing.T) {
	const unit, stripe = 4096, 2
	nodes := make([]*countNode, 4)
	members := make([]Member, len(nodes))
	for i := range members {
		nodes[i] = &countNode{Node: newMemNode(8 * unit)}
		members[i] = Member{Addr: "count", Node: nodes[i]}
	}
	opts := quietOpts()
	opts.HedgeDelay = -1
	v, err := Open(members, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	shadow := fillVolume(t, v, 5)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	geo := v.Geometry()
	victim := geo.DataDisk(stripe, 1)
	failNode(v, victim)
	sdb := geo.StripeDataBytes()
	for _, rd := range []struct{ off, n, lo, hi int64 }{
		{stripe*sdb + unit + 700, 100, 700, 800}, // inside the absent unit
		{stripe * sdb, sdb, 0, unit},             // the whole stripe
	} {
		for _, n := range nodes {
			n.take()
		}
		got := make([]byte, rd.n)
		if _, err := v.ReadAt(got, rd.off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, shadow[rd.off:rd.off+rd.n]) {
			t.Fatalf("degraded read of [%d,+%d) returned wrong data", rd.off, rd.n)
		}
		for i, n := range nodes {
			reads := n.take()
			if i == victim {
				if len(reads) != 0 {
					t.Fatalf("read of [%d,+%d): the absent node was read: %v", rd.off, rd.n, reads)
				}
				continue
			}
			want := [2]int64{geo.DiskOffset(stripe) + rd.lo, rd.hi - rd.lo}
			if len(reads) != 1 || reads[0] != want {
				t.Fatalf("read of [%d,+%d): node %d served %v, want %v once", rd.off, rd.n, i, reads, want)
			}
		}
	}
}

// The units of a stripe live on distinct nodes and every stripe operation
// moves them together: a phase — load, store — costs about one node
// service time, not one per unit. VerifyParity and a degraded write that
// carries the whole stripe are one phase a stripe; a degraded partial
// write and the heal of a unit are two, load then store.
func TestStripeOpsOverlapTheirUnits(t *testing.T) {
	const service = 20 * time.Millisecond
	const unit, stripes = 4096, 4
	opts := quietOpts()
	opts.HedgeDelay = -1
	v, faults := testVolume(t, 4, stripes*unit, opts)
	shadow := fillVolume(t, v, 11)
	ctx := context.Background()
	if err := v.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	slow := switchable(fault.Rule{Do: fault.Delay(service)}, faults...)
	// Any op can meet a processor stolen for a moment: the best of a few is
	// what the nodes allow.
	best := func(name string, phases int, op func()) {
		t.Helper()
		bound := time.Duration(phases+1) * service
		took := time.Hour
		for try := 0; try < 4 && took >= bound; try++ {
			t0 := time.Now()
			op()
			took = min(took, time.Since(t0))
		}
		if took >= bound {
			t.Fatalf("%s took %v on nodes with a %v service time, want under %v", name, took, service, bound)
		}
	}
	best("VerifyParity", stripes, func() {
		if bad, skipped, err := v.VerifyParity(ctx); err != nil || len(bad) > 0 || skipped > 0 {
			t.Fatalf("VerifyParity: bad=%v skipped=%d err=%v", bad, skipped, err)
		}
	})
	const victim = 1
	failNode(v, victim)
	sdb := v.Geometry().StripeDataBytes()
	whole := stripeOn(v, victim, 0)
	best("degraded full-stripe write", 1, func() {
		if _, err := v.WriteAt(shadow[whole*sdb:(whole+1)*sdb], whole*sdb); err != nil {
			t.Fatal(err)
		}
	})
	part := stripeOn(v, victim, whole+1)
	best("degraded partial write", 2, func() {
		if _, err := v.WriteAt(shadow[part*sdb+100:part*sdb+300], part*sdb+100); err != nil {
			t.Fatal(err)
		}
	})
	if got := v.Stats().DegradedWrites; got < 2 {
		t.Fatalf("DegradedWrites = %d: the writes did not take the degraded protocol", got)
	}
	// Heal: a unit a stripe, each solved from the survivors and written.
	best("HealNode", 2*stripes, func() {
		failNode(v, victim)
		rep, err := v.HealNode(ctx, victim, true)
		if err != nil || len(rep.Lost) > 0 || rep.Remaining > 0 {
			t.Fatalf("HealNode: %+v, %v", rep, err)
		}
	})
	slow.Store(false)
	got := make([]byte, len(shadow))
	if _, err := v.ReadAt(got, 0); err != nil || !bytes.Equal(got, shadow) {
		t.Fatalf("volume differs from its shadow after the timed ops (err %v)", err)
	}
	assertRedundant(t, v)
}

// A heal is two node round trips a stripe — load the survivors, store the
// unit — and the sweep is the volume's MTTR, so it runs min(GOMAXPROCS,
// data nodes) stripes at a time: on nodes that take 2 ms an operation,
// three workers finish a 64-stripe heal in under half the time one does.
func TestHealSweepRunsWorkersWide(t *testing.T) {
	const service = 2 * time.Millisecond
	const unit, stripes, victim = 4096, 64, 1
	ctx := context.Background()
	heal := func(workers int) time.Duration {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		opts := quietOpts()
		opts.HedgeDelay = -1
		v, faults := testVolume(t, 4, stripes*unit, opts)
		shadow := fillVolume(t, v, 13)
		if err := v.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		failNode(v, victim)
		slow := switchable(fault.Rule{Do: fault.Delay(service)}, faults...)
		t0 := time.Now()
		rep, err := v.HealNode(ctx, victim, true)
		took := time.Since(t0)
		slow.Store(false)
		if err != nil || len(rep.Lost) > 0 || rep.Remaining > 0 {
			t.Fatalf("HealNode with %d workers: %+v, %v", workers, rep, err)
		}
		got := make([]byte, len(shadow))
		if _, err := v.ReadAt(got, 0); err != nil || !bytes.Equal(got, shadow) {
			t.Fatalf("volume differs from its shadow after a %d-worker heal (err %v)", workers, err)
		}
		assertRedundant(t, v)
		return took
	}
	serial, wide := heal(1), heal(3)
	if wide >= serial/2 {
		t.Fatalf("64-stripe heal on %v nodes: %v with 3 workers, %v with 1; want under half", service, wide, serial)
	}
}

// stripeOn returns the first stripe at or after from in which node holds a
// data unit.
func stripeOn(v *Volume, node int, from int64) int64 {
	for st := from; ; st++ {
		if v.Geometry().ParityDisk(st) != node {
			return st
		}
	}
}

// A hedge that loses keeps reading the survivors into its stripe image
// after the primary has answered and ReadAt has returned. The image stays
// the loser's until its last unit read is back: the stripe operations that
// follow take other images from the pool, never that one — the race
// detector is the judge.
func TestHedgeLoserKeepsItsImage(t *testing.T) {
	const unit = 4096
	const primary, others = 4 * time.Millisecond, 25 * time.Millisecond
	opts := quietOpts()
	opts.HedgeDelay = time.Millisecond
	v, nodes := testVolume(t, 4, 8*unit, opts)
	shadow := fillVolume(t, v, 21)
	ctx := context.Background()
	if err := v.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	geo := v.Geometry()
	sdb := geo.StripeDataBytes()
	got := make([]byte, unit)
	for st := int64(0); st < 4; st++ {
		home := geo.DataDisk(st, 0)
		slow := make([]*atomic.Bool, len(nodes))
		for i, n := range nodes {
			d := others
			if i == home {
				d = primary
			}
			slow[i] = switchable(fault.Rule{Do: fault.Delay(d)}, n)
		}
		if _, err := v.ReadAt(got, st*sdb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, shadow[st*sdb:st*sdb+unit]) {
			t.Fatalf("stripe %d: hedged read returned wrong data", st)
		}
		// The loser is still out; these load whole stripes into images.
		for _, on := range slow {
			on.Store(false)
		}
		if bad, skipped, err := v.VerifyParity(ctx); err != nil || len(bad) > 0 || skipped > 0 {
			t.Fatalf("VerifyParity: bad=%v skipped=%d err=%v", bad, skipped, err)
		}
		next := (st + 1) * sdb
		if _, err := v.WriteAt(shadow[next:next+sdb], next); err != nil {
			t.Fatal(err)
		}
	}
	if st := v.Stats(); st.HedgedReads < 4 || st.HedgeWins != 0 {
		t.Fatalf("hedged=%d wins=%d: the hedges were to fire and lose", st.HedgedReads, st.HedgeWins)
	}
	time.Sleep(2 * others) // let the last loser finish before the volume closes under it
}
