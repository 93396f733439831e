package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"afraid/internal/core"
)

// lossNode is a node whose own array has lost a range it holds: reads
// that reach it, and writes that would merge with it, answer ErrDataLoss,
// as a server does for bytes its store reports lost. A write that covers
// the range replaces it.
type lossNode struct {
	faultNode
	mu        sync.Mutex
	off, n    int64 // the lost range; n == 0 for none
	rewritten int   // writes that replaced it
}

func (l *lossNode) lose(off, n int64) {
	l.mu.Lock()
	l.off, l.n = off, n
	l.mu.Unlock()
}

func (l *lossNode) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	l.mu.Lock()
	hit := l.n > 0 && off < l.off+l.n && l.off < off+int64(len(p))
	l.mu.Unlock()
	if hit {
		return 0, fmt.Errorf("%w: node range lost", core.ErrDataLoss)
	}
	return l.faultNode.ReadAtContext(ctx, p, off)
}

func (l *lossNode) WriteAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n > 0 && off < l.off+l.n && l.off < off+int64(len(p)) {
		if off > l.off || off+int64(len(p)) < l.off+l.n {
			return 0, fmt.Errorf("%w: write merges with a lost range", core.ErrDataLoss)
		}
		l.n = 0
		l.rewritten++
	}
	return l.faultNode.WriteAtContext(ctx, p, off)
}

// TestNodeLossIsSolvedAround: a node that reports one unit of a redundant
// stripe lost is not a node that is down. A read of the unit returns its
// bytes, solved from the other nodes and parity, and the unit is rewritten
// on the node; a partial write into such a unit lays its bytes over the
// solved unit and writes it whole. No node is demoted.
func TestNodeLossIsSolvedAround(t *testing.T) {
	const unit, stripes = 4096, 16
	nodes := make([]*lossNode, 4)
	members := make([]Member, len(nodes))
	for i := range nodes {
		nodes[i] = &lossNode{faultNode: newMemNode(stripes * unit)}
		members[i] = Member{Addr: fmt.Sprintf("l%d", i), Node: nodes[i]}
	}
	opts := quietOpts()
	opts.HedgeDelay = -1
	v, err := Open(members, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	shadow := fillVolume(t, v, 31)
	ctx := context.Background()
	if err := v.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	geo := v.Geometry()
	sdb := geo.StripeDataBytes()

	// A read.
	const readStripe, readIdx = 3, 1
	home := nodes[geo.DataDisk(readStripe, readIdx)]
	home.lose(geo.DiskOffset(readStripe), unit)
	off := readStripe*sdb + readIdx*unit
	got := make([]byte, unit)
	if _, err := v.ReadAt(got, off); err != nil || !bytes.Equal(got, shadow[off:off+unit]) {
		t.Fatalf("read of a unit its node lost: err %v, bytes equal %v", err, bytes.Equal(got, shadow[off:off+unit]))
	}
	if home.rewritten != 1 {
		t.Fatalf("the lost unit was rewritten on its node %d times, want once", home.rewritten)
	}
	if _, err := home.faultNode.ReadAtContext(ctx, got, geo.DiskOffset(readStripe)); err != nil || !bytes.Equal(got, shadow[off:off+unit]) {
		t.Fatal("the node does not hold the unit's bytes again")
	}

	// A write.
	const writeStripe, writeIdx = 6, 2
	home = nodes[geo.DataDisk(writeStripe, writeIdx)]
	home.lose(geo.DiskOffset(writeStripe), unit)
	off = writeStripe*sdb + writeIdx*unit + 100
	p := make([]byte, 300)
	rand.New(rand.NewSource(32)).Read(p)
	if _, err := v.WriteAt(p, off); err != nil {
		t.Fatalf("write into a unit its node lost: %v", err)
	}
	copy(shadow[off:], p)
	if home.rewritten != 1 {
		t.Fatalf("the written unit went to its node whole %d times, want once", home.rewritten)
	}

	if st := v.Stats(); st.NodeFailovers != 0 {
		t.Fatalf("%d node failovers for a unit a node reported lost", st.NodeFailovers)
	}
	assertFlushed(t, v, shadow)
}

// assertFlushed flushes the volume, checks its parity, and reads it back.
func assertFlushed(t *testing.T, v *Volume, shadow []byte) {
	t.Helper()
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertRedundant(t, v)
	got := make([]byte, len(shadow))
	if _, err := v.ReadAt(got, 0); err != nil || !bytes.Equal(got, shadow) {
		t.Fatalf("volume differs from its shadow (err %v)", err)
	}
}
