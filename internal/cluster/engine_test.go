package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/testutil"
)

// The tests here cover the volume as a client of the deferred-redundancy
// engine (internal/nvram): what it gained by giving up its own copies of
// the marking, trigger and drain code.

// gateNV is a marking memory whose Store can be held shut.
type gateNV struct {
	core.MemNVRAM
	mu      sync.Mutex
	gate    chan struct{}
	entered chan struct{}
	stores  atomic.Int64
}

func (n *gateNV) shut() {
	n.mu.Lock()
	n.gate, n.entered = make(chan struct{}), make(chan struct{}, 64)
	n.mu.Unlock()
}

func (n *gateNV) open() {
	n.mu.Lock()
	if n.gate != nil {
		close(n.gate)
		n.gate = nil
	}
	n.mu.Unlock()
}

func (n *gateNV) Store(img []byte) error {
	n.mu.Lock()
	gate, entered := n.gate, n.entered
	n.mu.Unlock()
	if gate != nil {
		entered <- struct{}{}
		<-gate
	}
	n.stores.Add(1)
	return n.MemNVRAM.Store(img)
}

// within fails the test if f does not return promptly: the symptom of a
// volume lock held across a marking-memory write.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s blocked behind a marking-memory store", what)
	}
}

// TestSlowMarkingMemoryDoesNotStallTheVolume: a mark's NVRAM store
// happens outside the volume's lock, so readers of node state, and
// reads, keep going while it is in flight — and writers that pile up
// behind it share the next store instead of queueing one each.
func TestSlowMarkingMemoryDoesNotStallTheVolume(t *testing.T) {
	nv := &gateNV{}
	opts := quietOpts()
	opts.NV = nv
	v, _ := testVolume(t, 4, 64*4096, opts)
	span := v.geo.StripeDataBytes()
	buf := make([]byte, 4096)

	nv.shut()
	t.Cleanup(nv.open) // so a failure below cannot wedge the volume's Close
	const writers = 8
	errs := make(chan error, writers)
	write := func(stripe int64) {
		_, err := v.WriteAt(buf, stripe*span)
		errs <- err
	}
	go write(0)
	<-nv.entered // stripe 0's mark is inside Store

	within(t, "Stats", func() { v.Stats() })
	within(t, "NodeStates", func() { v.NodeStates() })
	within(t, "a read of a clean stripe", func() {
		if _, err := v.ReadAt(make([]byte, 4096), 20*span); err != nil {
			t.Error(err)
		}
	})

	for st := int64(1); st < writers; st++ {
		go write(st)
	}
	// Every mark applied, every writer waiting for its image.
	testutil.Eventually(t, "every writer to reach the marking memory", func() bool { return v.DirtyStripes() == writers })
	nv.open()
	for i := 0; i < writers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := nv.stores.Load(); got >= writers {
		t.Fatalf("%d concurrent writers to distinct stripes cost %d stores; want group commit", writers, got)
	}
}

// gateNode holds the first read it sees after arm, and says so.
type gateNode struct {
	Node
	mu      sync.Mutex
	gate    chan struct{}
	entered chan struct{}
}

func (n *gateNode) arm() {
	n.mu.Lock()
	n.gate, n.entered = make(chan struct{}), make(chan struct{})
	n.mu.Unlock()
}

func (n *gateNode) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	n.mu.Lock()
	gate := n.gate
	n.gate = nil
	n.mu.Unlock()
	if gate != nil {
		close(n.entered)
		<-gate
	}
	return n.Node.ReadAtContext(ctx, p, off)
}

// TestIdleDrainPreemptedByForegroundWrite ports core's idle-sample
// regression to the volume, which inherits the fix from the engine. There
// is no drain goroutine: the test runs the episodes itself. Stripe 0 is
// dirty and the volume completely idle. A parity check holds stripe 0's
// lock, its read held inside a node, while an idle episode claims stripe
// 0 and queues on that lock; then a write lands. The drain, decided on
// when the volume was idle, must notice it no longer is and leave the
// stripe marked.
func TestIdleDrainPreemptedByForegroundWrite(t *testing.T) {
	nodes := make([]*gateNode, 4)
	members := make([]Member, len(nodes))
	for i := range nodes {
		nodes[i] = &gateNode{Node: newMemNode(16 * 4096)}
		members[i] = Member{Addr: fmt.Sprintf("g%d", i), Node: nodes[i]}
	}
	v, err := Open(members, Options{StripeUnit: 4096, DisableDrain: true, DrainIdle: time.Nanosecond, NodeTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	buf := make([]byte, 4096)
	if _, err := v.WriteAt(buf, 0); err != nil { // dirties stripe 0
		t.Fatal(err)
	}
	held := nodes[v.geo.DataDisk(0, 0)]
	held.arm()
	release := held.gate
	checked := make(chan error, 1)
	go func() {
		_, err := v.st.CheckParity()
		checked <- err
	}()
	<-held.entered // stripe 0: locked, its read in the node

	polled := make(chan struct{})
	go func() { v.st.Engine().Poll(); close(polled) }()
	testutil.Eventually(t, "the idle episode to claim stripe 0", func() bool { return v.st.Engine().Stats().IdleEpisodes == 1 })
	_, err = v.WriteAt(buf, v.geo.StripeDataBytes()) // foreground I/O on stripe 1
	close(release)
	<-polled
	if err != nil {
		t.Fatal(err)
	}
	if err := <-checked; err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); v.st.Engine().Stats().Preempts != 1 || st.ScrubbedStripes != 0 || st.DirtyStripes != 2 {
		t.Fatalf("the preempted drain consumed a fresh mark: %+v", st)
	}
	v.st.Engine().Poll() // with a current generation the drain proceeds
	if v.DirtyStripes() != 0 {
		t.Fatalf("%d stripes dirty after an undisturbed idle episode", v.DirtyStripes())
	}
	if bad, skipped, err := v.VerifyParity(context.Background()); err != nil || len(bad) != 0 || skipped != 0 {
		t.Fatalf("VerifyParity = (%v, %d, %v)", bad, skipped, err)
	}
}

// TestLostStripeDoesNotShieldTheBacklog: a stripe that was dirty when a
// node was replaced by a blank one is salvaged by the full heal — the
// node's unit zeroed, the loss reported, the stripe redundant again. One no
// drain can make redundant (dirty, with a node stale on it) stays dirty, and
// every drain skips it. It is also the lowest mark, where every drain
// starts; the stripes above it must still be drained, in the background and
// by the write path's valve, or one such stripe would end the volume's
// bound on its exposure.
func TestLostStripeDoesNotShieldTheBacklog(t *testing.T) {
	opts := quietOpts() // no drain goroutine: the test runs the episodes
	opts.DrainIdle, opts.MaxDirty = time.Hour, 2
	v, faults := testVolume(t, 4, 32*4096, opts)
	span := v.geo.StripeDataBytes()
	buf := make([]byte, 4096)
	ctx := context.Background()

	if _, err := v.WriteAt(buf, 0); err != nil { // stripe 0 dirty...
		t.Fatal(err)
	}
	victim := v.geo.DataDisk(0, 0)
	faults[victim].Fail()
	if _, err := v.WriteAt(buf[:512], 0); !errors.Is(err, core.ErrDataLoss) { // ...and its first unit missed a write: stale too
		t.Fatalf("write into a dirty stripe's dead unit = %v, want ErrDataLoss", err)
	}
	faults[victim].Heal()
	rep, err := v.HealNode(ctx, victim, true)
	if err != nil || !reflect.DeepEqual(rep.Lost, []int64{0}) {
		t.Fatalf("HealNode = %+v, %v; want stripe 0 reported lost", rep, err)
	}
	got := make([]byte, len(buf))
	if _, err := v.ReadAt(got, 0); err != nil || !bytes.Equal(got, make([]byte, len(buf))) || v.DirtyStripes() != 0 || v.Stats().DamagedStripes != 1 {
		t.Fatalf("the lost unit reads (%v) and %d stripes are dirty; want it salvaged to zeroes and the stripe redundant", err, v.DirtyStripes())
	}
	if _, err := v.WriteAt(buf, 0); err != nil { // dirty again...
		t.Fatal(err)
	}
	if err := v.st.Engine().MarkStale(victim, 0, 1); err != nil { // ...and stale on a node, as a heal cut short leaves it
		t.Fatal(err)
	}

	write := func(stripes ...int64) {
		t.Helper()
		for _, st := range stripes {
			if _, err := v.WriteAt(buf, st*span); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(1, 2, 3) // 2×MaxDirty dirty: over the bound, the valve still shut
	if got := v.Stats().InlineScrubs; got != 0 {
		t.Fatalf("%d inline drains at 2×MaxDirty", got)
	}
	v.st.Engine().Poll() // a forced episode, down to the bound
	if got, want := v.DirtyList(), []int64{0, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("forced episode left %v dirty, want %v", got, want)
	}
	write(4, 5, 6) // the last one is past 2×MaxDirty and drains inline
	if got, want := v.DirtyList(), []int64{0, 6}; !reflect.DeepEqual(got, want) || v.Stats().InlineScrubs != 3 {
		t.Fatalf("valve left %v dirty after %d inline drains, want %v after 3", got, v.Stats().InlineScrubs, want)
	}
	if err := v.Flush(ctx); !errors.Is(err, core.ErrTooManyFailures) {
		t.Fatalf("Flush = %v, want core.ErrTooManyFailures for the lost stripe", err)
	}
	if got := v.DirtyList(); !reflect.DeepEqual(got, []int64{0}) {
		t.Fatalf("Flush left %v dirty, want only the lost stripe", got)
	}
}

// TestInlineValveCostIndependentOfBacklog: a write past 2×MaxDirty
// drains a few stripes inline; what it allocates doing so must not grow
// with the number of dirty stripes (the old valve copied the whole dirty
// list to pick four of them).
func TestInlineValveCostIndependentOfBacklog(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	const unit, stripes, writes = 512, 4096, 16
	perWrite := func(backlog int64) uint64 {
		v, _ := testVolume(t, 4, stripes*unit, Options{StripeUnit: unit, MaxDirty: 8, DisableDrain: true})
		for st := int64(0); st < backlog; st++ {
			if err := v.st.Engine().Mark(st); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, unit)
		write := func() {
			if _, err := v.WriteAt(buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			write() // warm the buffer pools
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < writes; i++ {
			write()
		}
		runtime.ReadMemStats(&m1)
		if got := v.Stats().InlineScrubs; got == 0 || v.DirtyStripes() <= 16 {
			t.Fatalf("valve did not run against a standing backlog (inline=%d dirty=%d)", got, v.DirtyStripes())
		}
		return (m1.TotalAlloc - m0.TotalAlloc) / writes
	}
	small, large := perWrite(256), perWrite(stripes)
	t.Logf("bytes allocated per write: %d with 256 dirty, %d with %d dirty", small, large, stripes)
	if large > small+2048 { // a copied dirty list would add 8 bytes per extra dirty stripe: ~30 KB
		t.Fatalf("a write over a %d-stripe backlog allocates %d B, over 256 stripes %d B: cost grows with the backlog", stripes, large, small)
	}
}

// goldenMarksImage is the AFCLMK1 marking memory a 4-node, 70-stripe
// volume wrote at the commit before the engine existed: stripes 0, 3,
// 63, 64, 69 dirty, node 1 stale at 1 and 64, node 3 stale at 69.
const goldenMarksImage = "4146434c4d4b310a04000000" +
	"18000000" + "460000000000000009000000000000802100000000000000" +
	"18000000" + "460000000000000000000000000000000000000000000000" +
	"18000000" + "460000000000000002000000000000000100000000000000" +
	"18000000" + "460000000000000000000000000000000000000000000000" +
	"18000000" + "460000000000000000000000000000002000000000000000"

func TestGoldenMarksImage(t *testing.T) {
	img, err := hex.DecodeString(goldenMarksImage)
	if err != nil {
		t.Fatal(err)
	}
	nv := &core.MemNVRAM{}
	if err := nv.Store(img); err != nil {
		t.Fatal(err)
	}
	opts := quietOpts()
	opts.NV = nv
	v, _ := testVolume(t, 4, 70*4096, opts)
	if got, want := v.DirtyList(), []int64{0, 3, 63, 64, 69}; !reflect.DeepEqual(got, want) || v.Stats().NVRAMRecovered {
		t.Fatalf("dirty after load = %v (recovered=%v), want %v", got, v.Stats().NVRAMRecovered, want)
	}
	stale := make([][]int64, len(v.nodes))
	for i := range v.nodes {
		stale[i] = v.st.Engine().StaleUnits(i)
	}
	if want := [][]int64{{}, {1, 64}, {}, {69}}; !reflect.DeepEqual(stale, want) {
		t.Fatalf("stale maps after load = %v, want %v", stale, want)
	}
	if err := v.st.Engine().Commit(); err != nil {
		t.Fatal(err)
	}
	if got, _ := nv.Load(); !bytes.Equal(got, img) {
		t.Fatalf("volume wrote\n%x\nthe format before the engine was\n%x", got, img)
	}
}
