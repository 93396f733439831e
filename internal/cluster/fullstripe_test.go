package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"afraid/internal/fault"
	"afraid/internal/server"
)

func fullStripeWrites(v *Volume) uint64 { return v.Stats().FullStripeWrites }

func assertRedundant(t *testing.T, v *Volume) {
	t.Helper()
	if n := v.DirtyStripes(); n != 0 {
		t.Fatalf("%d dirty stripes", n)
	}
	bad, skipped, err := v.VerifyParity(context.Background())
	if err != nil || len(bad) != 0 || skipped != 0 {
		t.Fatalf("VerifyParity = (%v, %d, %v), want clean", bad, skipped, err)
	}
}

// A write that carries whole stripes of a healthy volume leaves them
// redundant with no drain: one write per node for the run of stripes,
// parity among them, nothing read, a stripe that was dirty before
// included. The marks it made durable are cleared in memory only, until
// Flush levels the image.
func TestFullStripeWriteLeavesStripeRedundant(t *testing.T) {
	nv := &gateNV{}
	opts := quietOpts()
	opts.NV = nv
	v, faults := testVolume(t, 4, 16*4096, opts)
	sdb := v.geo.StripeDataBytes()
	if _, err := v.WriteAt(make([]byte, 100), 2*sdb+7); err != nil { // stripe 2 dirty
		t.Fatal(err)
	}
	if n := v.DirtyStripes(); n != 1 {
		t.Fatalf("%d dirty stripes after a partial write, want 1", n)
	}
	before := served(faults...)
	want := make([]byte, 3*sdb)
	rand.New(rand.NewSource(1)).Read(want)
	if _, err := v.WriteAt(want, sdb); err != nil {
		t.Fatal(err)
	}
	if got := served(faults...) - before; got != int64(len(faults)) {
		t.Fatalf("three full stripes cost %d node operations, want one write per node", got)
	}
	if got := fullStripeWrites(v); got != 3 {
		t.Fatalf("full_stripe_writes = %d, want 3", got)
	}
	assertRedundant(t, v)
	got := make([]byte, len(want))
	if _, err := v.ReadAt(got, sdb); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back: err %v", err)
	}

	reopened := func() int64 {
		members := make([]Member, len(faults))
		for i, f := range faults {
			members[i] = Member{Node: f}
		}
		o := quietOpts()
		o.NV = &nv.MemNVRAM
		v2, err := Open(members, o)
		if err != nil {
			t.Fatal(err)
		}
		n := v2.DirtyStripes()
		v2.Close()
		return n
	}
	if n := reopened(); n == 0 {
		t.Fatal("the marks were never durable: the image shows none before any later store")
	}
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := reopened(); n != 0 {
		t.Fatalf("Flush left an image with %d marks, memory has 0", n)
	}
}

// With a node down the stripe is not healthy, and a whole-stripe write
// takes the protocols it took before: synchronous and degraded when a
// data node is gone, deferred when only the parity node is.
func TestFullStripeWriteWithNodeDownTakesTheOldPaths(t *testing.T) {
	v, faults := testVolume(t, 4, 16*4096, quietOpts())
	sdb := v.geo.StripeDataBytes()
	shadow := fillVolume(t, v, 3)
	filled := fullStripeWrites(v)
	if filled != uint64(v.geo.Stripes()) {
		t.Fatalf("filling %d stripes made %d full-stripe writes", v.geo.Stripes(), filled)
	}
	const victim = 1
	faults[victim].Fail()
	if err := v.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	fresh := make([]byte, sdb)
	rng := rand.New(rand.NewSource(4))
	degradedBefore := v.Stats().DegradedWrites
	var deferred int64
	for st := int64(0); st < v.geo.Stripes(); st++ {
		rng.Read(fresh)
		if _, err := v.WriteAt(fresh, st*sdb); err != nil {
			t.Fatalf("stripe %d: %v", st, err)
		}
		copy(shadow[st*sdb:], fresh)
		if v.geo.ParityDisk(st) == victim {
			deferred++
		}
	}
	if got := fullStripeWrites(v); got != filled {
		t.Fatalf("%d full-stripe writes with a node down", got-filled)
	}
	if got := int64(v.Stats().DegradedWrites - degradedBefore); got != v.geo.Stripes()-deferred {
		t.Fatalf("%d degraded writes, want %d (every stripe with the victim holding data)", got, v.geo.Stripes()-deferred)
	}
	if got := v.DirtyStripes(); got != deferred {
		t.Fatalf("%d dirty stripes, want the %d whose parity node is down", got, deferred)
	}
	got := make([]byte, len(shadow))
	if _, err := v.ReadAt(got, 0); err != nil || !bytes.Equal(got, shadow) {
		t.Fatalf("degraded read back: err %v", err)
	}
	faults[victim].Heal()
	if _, err := v.HealNode(context.Background(), victim, false); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertRedundant(t, v)
}

// A node that dies under a full-stripe write leaves the stripe in the
// exposure set with that node's unit stale; the span's retry finishes the
// write under the degraded protocol, and nothing acknowledged is lost.
func TestNodeLostInsideFullStripeWrite(t *testing.T) {
	for victim := 0; victim < 4; victim++ {
		v, faults := testVolume(t, 4, 16*4096, quietOpts())
		sdb := v.geo.StripeDataBytes()
		shadow := fillVolume(t, v, 5)
		faults[victim].AddRule(fault.Rule{When: fault.After(faults[victim].ops()), Do: fault.FailStop(), Max: 1})
		fresh := make([]byte, sdb)
		rand.New(rand.NewSource(6)).Read(fresh)
		if _, err := v.WriteAt(fresh, 0); err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		copy(shadow, fresh)
		if v.NodeStates()[victim].State != StateDown {
			t.Fatalf("victim %d not demoted", victim)
		}
		if dirty := v.st.Engine().IsMarked(0); dirty != (v.geo.ParityDisk(0) == victim) {
			t.Fatalf("victim %d: stripe 0 dirty=%v after the retried write", victim, dirty)
		}
		got := make([]byte, len(shadow))
		if _, err := v.ReadAt(got, 0); err != nil || !bytes.Equal(got, shadow) {
			t.Fatalf("victim %d: read back around the dead node: err %v", victim, err)
		}
		faults[victim].Heal()
		if rep, err := v.HealNode(context.Background(), victim, false); err != nil || len(rep.Lost) != 0 {
			t.Fatalf("victim %d: heal = %+v, %v", victim, rep, err)
		}
		if err := v.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		assertRedundant(t, v)
	}
}

// TestVolumeRunOneWritePerNode: an aligned write of five whole stripes to a
// healthy four-node volume is one full-stripe run — one write per node,
// each node's units of the five stripes back to back in one request, and
// nothing read — and counts five full-stripe writes.
func TestVolumeRunOneWritePerNode(t *testing.T) {
	v, faults := testVolume(t, 4, 16*4096, quietOpts())
	sdb := v.geo.StripeDataBytes()
	before := make([]fault.Stats, len(faults))
	for i, f := range faults {
		before[i] = f.Stats()
	}
	full0 := fullStripeWrites(v)
	want := make([]byte, 5*sdb)
	rand.New(rand.NewSource(7)).Read(want)
	if _, err := v.WriteAt(want, 2*sdb); err != nil {
		t.Fatal(err)
	}
	for i, f := range faults {
		if st := f.Stats(); st.Writes-before[i].Writes != 1 || st.Reads != before[i].Reads {
			t.Errorf("node %d took %d writes and %d reads, want one write", i, st.Writes-before[i].Writes, st.Reads-before[i].Reads)
		}
	}
	if got := fullStripeWrites(v) - full0; got != 5 {
		t.Errorf("full_stripe_writes moved by %d, want 5", got)
	}
	assertRedundant(t, v)
	got := make([]byte, len(want))
	if _, err := v.ReadAt(got, 2*sdb); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back: err %v", err)
	}
}

// BenchmarkVolumeSequentialWrite streams 1 MiB writes over a volume of four
// loopback RAID 0 nodes with the default 64 KiB unit, the way the cluster
// benchmark's set-up fills one: each write is mostly a full-stripe run, one
// request per node.
func BenchmarkVolumeSequentialWrite(b *testing.B) {
	members := make([]Member, 4)
	for i := range members {
		h := newHarnessNode(b, 16<<20)
		members[i] = Member{Addr: h.Addr(), Dial: func() (Node, error) { return server.DialTimeout(h.Addr(), 2*time.Second) }}
	}
	v, err := Open(members, Options{DisableDrain: true})
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	buf := make([]byte, 1<<20)
	chunks := v.Capacity() / int64(len(buf))
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.WriteAt(buf, int64(i)%chunks*int64(len(buf))); err != nil {
			b.Fatal(err)
		}
	}
}
