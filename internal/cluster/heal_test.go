package cluster

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"afraid/internal/core"
)

// holdNode lets its first free writes through, then holds every write
// until release, reporting the offset of each write it holds.
type holdNode struct {
	Node
	mu   sync.Mutex
	free int
	gate chan struct{}
	held chan int64
}

func (n *holdNode) WriteAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	n.mu.Lock()
	gate := n.gate
	if n.free > 0 {
		n.free--
		gate = nil
	}
	n.mu.Unlock()
	if gate != nil {
		n.held <- off
		<-gate
	}
	return n.Node.WriteAtContext(ctx, p, off)
}

// TestFullHealNeverServesTheBlankNode: a node replaced by a blank machine
// is healed with full set, which marks every unit of it stale, durably,
// before the node is dialed back in. Until the heal has rebuilt a unit,
// reads of it go around the node — while the heal runs, and after the
// volume restarts on the same marking memory with the heal cut short — and
// a plain heal after the restart finishes the job.
func TestFullHealNeverServesTheBlankNode(t *testing.T) {
	const unit, stripes, victim = 4096, 16, 1
	nv := &core.MemNVRAM{}
	// One stripe healed at a time, so the heal holds exactly one write.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts := quietOpts()
	opts.NV, opts.HedgeDelay = nv, -1
	current := make([]Node, 4)
	for i := range current {
		current[i] = newMemNode(stripes * unit)
	}
	open := func() *Volume {
		t.Helper()
		members := make([]Member, len(current))
		for i := range members {
			members[i] = Member{Addr: fmt.Sprintf("n%d", i), Node: current[i], Dial: func() (Node, error) { return current[i], nil }}
		}
		v, err := Open(members, opts)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v := open()
	shadow := fillVolume(t, v, 5)
	ctx := context.Background()
	if err := v.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sdb := v.geo.StripeDataBytes()
	// readBack checks every stripe but skip, whose lock the held heal has.
	readBack := func(v *Volume, skip int64) {
		t.Helper()
		got := make([]byte, sdb)
		for st := int64(0); st < stripes; st++ {
			if st == skip {
				continue
			}
			if _, err := v.ReadAt(got, st*sdb); err != nil {
				t.Fatalf("stripe %d: %v", st, err)
			}
			if !bytes.Equal(got, shadow[st*sdb:(st+1)*sdb]) {
				t.Fatalf("stripe %d reads wrong bytes with a nil error: the blank node served it", st)
			}
		}
	}

	failNode(v, victim)
	blank := &holdNode{Node: newMemNode(stripes * unit), free: 5, gate: make(chan struct{}), held: make(chan int64, stripes)}
	current[victim] = blank
	healed := make(chan error, 1)
	go func() {
		_, err := v.HealNode(ctx, victim, true)
		healed <- err
	}()
	var held int64 // the heal rebuilt five stripes and holds this one
	select {
	case off := <-blank.held:
		held = off / unit
	case err := <-healed:
		t.Fatalf("the full heal returned (%v) before it reached the blank node's sixth unit", err)
	}
	readBack(v, held)

	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	close(blank.gate)
	<-healed // cut short by the Close, or done with the stripe it held
	v = open()
	defer v.Close()
	readBack(v, -1)
	if n := v.NodeStates()[victim].StaleStripes; n == 0 || n > stripes-5 {
		t.Fatalf("node %d has %d stale stripes after the restart, want the %d the heal had not reached, or one fewer", victim, n, stripes-5)
	}
	if rep, err := v.HealNode(ctx, victim, false); err != nil || len(rep.Lost) != 0 || rep.Remaining != 0 {
		t.Fatalf("HealNode after the restart = %+v, %v", rep, err)
	}
	if n := v.NodeStates()[victim].StaleStripes; n != 0 {
		t.Fatalf("node %d still has %d stale stripes", victim, n)
	}
	readBack(v, -1)
	assertRedundant(t, v)
}
