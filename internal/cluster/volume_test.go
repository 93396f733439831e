package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/fault"
	"afraid/internal/obs"
	"afraid/internal/testutil"
)

// faultNode is the in-process Node of the unit tests: a core.MemDevice
// behind a fault.Device, so a test faults a node as core's tests fault a
// disk — Fail and Heal, and FailStop, Transient and Delay rules. Ping and
// Flush are empty reads, which the rules see like any other op. Close
// leaves the device as it is, so a test can hand the same node back
// through Member.Dial after a simulated crash.
type faultNode struct{ *fault.Device }

func newMemNode(size int64) faultNode { return faultNode{fault.New(core.NewMemDevice(size), 1)} }

func (n faultNode) Flush(ctx context.Context) error { return n.Ping(ctx) }
func (n faultNode) Capacity() int64                 { return n.Size() }
func (n faultNode) Ping(ctx context.Context) error {
	_, err := n.ReadAtContext(ctx, nil, 0)
	return err
}

// ops is how many operations the node has taken.
func (n faultNode) ops() uint64 { s := n.Stats(); return s.Reads + s.Writes }

// served sums the operations the nodes have taken.
func served(nodes ...faultNode) (n int64) {
	for _, f := range nodes {
		n += int64(f.ops())
	}
	return n
}

// switchable arms r on the nodes until the returned switch is turned off.
func switchable(r fault.Rule, nodes ...faultNode) *atomic.Bool {
	on, when := new(atomic.Bool), r.When
	on.Store(true)
	r.When = func(op fault.Op, rng *rand.Rand) bool { return on.Load() && (when == nil || when(op, rng)) }
	for _, n := range nodes {
		n.AddRule(r)
	}
	return on
}

// testVolume builds an nNodes-member volume over faultNodes, each
// re-dialable (heal hands the same node back).
func testVolume(t *testing.T, nNodes int, nodeSize int64, opts Options) (*Volume, []faultNode) {
	t.Helper()
	faults := make([]faultNode, nNodes)
	members := make([]Member, nNodes)
	for i := range members {
		faults[i] = newMemNode(nodeSize)
		f := faults[i]
		members[i] = Member{
			Addr: fmt.Sprintf("mem%d", i),
			Node: f,
			Dial: func() (Node, error) { return f, nil },
		}
	}
	v, err := Open(members, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v, faults
}

// quietOpts keeps background machinery out of deterministic tests.
func quietOpts() Options {
	return Options{StripeUnit: 4096, DisableDrain: true, NodeTimeout: 5 * time.Second}
}

// TestLocateBoundaries pins the client-address → (stripe, node, offset)
// mapping at the edges, with expectations computed by hand for the
// left-symmetric rotation over 4 nodes (parity starts on node 3 and
// rotates left: stripe 0 data on nodes 0,1,2; stripe 1 on 3,0,1; ...).
func TestLocateBoundaries(t *testing.T) {
	const unit = 4096
	v, _ := testVolume(t, 4, 16*unit, quietOpts()) // 16 stripes, 12K data each
	if got := v.Capacity(); got != 16*3*unit {
		t.Fatalf("capacity = %d, want %d", got, 16*3*unit)
	}
	cases := []struct {
		addr    int64
		stripe  int64
		node    int
		nodeOff int64
	}{
		{0, 0, 0, 0},                        // first byte
		{unit - 1, 0, 0, unit - 1},          // last byte of first unit
		{unit, 0, 1, 0},                     // unit edge crosses to next node
		{3*unit - 1, 0, 2, unit - 1},        // last data byte of stripe 0
		{3 * unit, 1, 3, unit},              // stripe edge; stripe 1 data starts on node 3
		{6*unit - 1, 1, 1, 2*unit - 1},      // last byte of stripe 1 (data idx 2 → node 1)
		{6 * unit, 2, 2, 2 * unit},          // stripe 2 data starts on node 2
		{9 * unit, 3, 1, 3 * unit},          // stripe 3: parity on node 0, data on 1,2,3
		{12 * unit, 4, 0, 4 * unit},         // rotation wraps: stripe 4 like stripe 0
		{16*3*unit - 1, 15, 3, 16*unit - 1}, // very last byte (stripe 15: parity node 0)
	}
	for _, c := range cases {
		st, node, off, err := v.Locate(c.addr)
		if err != nil {
			t.Errorf("Locate(%d): %v", c.addr, err)
			continue
		}
		if st != c.stripe || node != c.node || off != c.nodeOff {
			t.Errorf("Locate(%d) = (stripe %d, node %d, off %d), want (%d, %d, %d)",
				c.addr, st, node, off, c.stripe, c.node, c.nodeOff)
		}
	}
	for _, bad := range []int64{-1, 16 * 3 * unit, math.MaxInt64} {
		if _, _, _, err := v.Locate(bad); err == nil {
			t.Errorf("Locate(%d) succeeded, want error", bad)
		}
	}
}

func TestOpenValidation(t *testing.T) {
	mk := func(n int, size int64) []Member {
		ms := make([]Member, n)
		for i := range ms {
			ms[i] = Member{Addr: fmt.Sprintf("m%d", i), Node: newMemNode(size)}
		}
		return ms
	}
	if _, err := Open(mk(2, 1<<20), Options{}); err == nil {
		t.Error("Open with 2 members succeeded, want error")
	}
	if _, err := Open(mk(3, 100), Options{StripeUnit: 4096}); err == nil {
		t.Error("Open with sub-stripe nodes succeeded, want error")
	}
	// Capacity is truncated to whole stripe units of the smallest node.
	ms := mk(4, 16*4096)
	ms[2] = Member{Addr: "small", Node: newMemNode(8*4096 + 123)}
	v, err := Open(ms, Options{StripeUnit: 4096, DisableDrain: true})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if got, want := v.Capacity(), int64(8*3*4096); got != want {
		t.Errorf("capacity = %d, want %d (truncated to smallest node)", got, want)
	}
}

// TestRangeOverflowHardening mirrors the layout.Split hardening: ranges
// whose off+length wraps int64 must be rejected, not panic or pass.
func TestRangeOverflowHardening(t *testing.T) {
	v, _ := testVolume(t, 4, 16*4096, quietOpts())
	buf := make([]byte, 8192)
	for _, off := range []int64{math.MaxInt64 - 1, math.MaxInt64 - 4096, v.Capacity() - 1, -1} {
		if _, err := v.ReadAt(buf, off); err == nil {
			t.Errorf("ReadAt(len %d, off %d) succeeded, want range error", len(buf), off)
		}
		if _, err := v.WriteAt(buf, off); err == nil {
			t.Errorf("WriteAt(len %d, off %d) succeeded, want range error", len(buf), off)
		}
	}
	// Exactly at capacity end is fine.
	if _, err := v.WriteAt(buf, v.Capacity()-int64(len(buf))); err != nil {
		t.Errorf("write ending at capacity: %v", err)
	}
}

// TestRoundTripAndDrain writes the whole volume with unaligned chunks,
// reads it back, and checks Flush leaves every stripe redundant and
// parity verifiable.
func TestRoundTripAndDrain(t *testing.T) {
	v, _ := testVolume(t, 5, 32*4096, quietOpts())
	capacity := v.Capacity()
	shadow := make([]byte, capacity)
	rng := rand.New(rand.NewSource(42))
	rng.Read(shadow)

	// Unaligned chunked writes: stress unit and stripe edge handling.
	for off := int64(0); off < capacity; {
		n := int64(rng.Intn(3*4096)) + 1
		if off+n > capacity {
			n = capacity - off
		}
		if _, err := v.WriteAt(shadow[off:off+n], off); err != nil {
			t.Fatalf("WriteAt(%d, %d): %v", n, off, err)
		}
		off += n
	}
	if v.DirtyStripes() == 0 {
		t.Fatal("no dirty stripes after writes: deferred parity not deferred")
	}
	got := make([]byte, capacity)
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("read-back mismatch before drain")
	}
	if err := v.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if n := v.DirtyStripes(); n != 0 {
		t.Fatalf("%d stripes still dirty after Flush", n)
	}
	bad, skipped, err := v.VerifyParity(context.Background())
	if err != nil || len(bad) != 0 || skipped != 0 {
		t.Fatalf("VerifyParity = (bad %v, skipped %d, err %v), want clean", bad, skipped, err)
	}
	st := v.Stats()
	if st.ScrubbedStripes == 0 || st.Writes == 0 || st.Reads == 0 {
		t.Errorf("stats not counting: %+v", st)
	}
}

// TestBackgroundDrain checks the idle drain empties the dirty set
// without an explicit Flush.
func TestBackgroundDrain(t *testing.T) {
	opts := Options{StripeUnit: 4096, DrainIdle: 10 * time.Millisecond, NodeTimeout: 5 * time.Second}
	v, _ := testVolume(t, 4, 16*4096, opts)
	buf := make([]byte, 3*4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	if _, err := v.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for v.DirtyStripes() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background drain left %d stripes dirty", v.DirtyStripes())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMarksPersistence checks the marking memory survives a volume-host
// restart: dirty stripes recorded before Close are still dirty after a
// re-Open over the same NVRAM, then drain clean.
func TestMarksPersistence(t *testing.T) {
	nv := &core.MemNVRAM{}
	nodes := make([]faultNode, 4)
	mk := func() []Member {
		ms := make([]Member, len(nodes))
		for i := range nodes {
			if nodes[i].Device == nil {
				nodes[i] = newMemNode(16 * 4096)
			}
			n := nodes[i]
			ms[i] = Member{Addr: fmt.Sprintf("m%d", i), Node: n, Dial: func() (Node, error) { return n, nil }}
		}
		return ms
	}
	opts := quietOpts()
	opts.NV = nv
	v, err := Open(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*4096)
	for i := range buf {
		buf[i] = 0xA5
	}
	if _, err := v.WriteAt(buf, 5*3*4096); err != nil { // stripe 5
		t.Fatal(err)
	}
	want := v.DirtyList()
	if len(want) == 0 {
		t.Fatal("write left nothing dirty")
	}
	v.Close()

	v2, err := Open(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	got := v2.DirtyList()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dirty after reopen = %v, want %v", got, want)
	}
	if v2.Stats().NVRAMRecovered {
		t.Error("clean reopen flagged as recovery")
	}
	if err := v2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := v2.DirtyStripes(); n != 0 {
		t.Fatalf("%d dirty after flush", n)
	}
}

// TestDownAtOpenStaleSurvivesReopen: a process that opens the volume
// with a member unreachable marks that member fully suspect — and must
// PERSIST the verdict. A later process that finds the node answering
// again (possibly with a blank replacement disk) must still see the
// all-stale map and refuse to trust the node until it is healed;
// otherwise the blank disk would serve zeros as data.
func TestDownAtOpenStaleSurvivesReopen(t *testing.T) {
	nv := &core.MemNVRAM{}
	nodes := make([]faultNode, 4)
	for i := range nodes {
		nodes[i] = newMemNode(16 * 4096)
	}
	mk := func(dead int) []Member {
		ms := make([]Member, len(nodes))
		for i := range nodes {
			n := nodes[i]
			if i == dead {
				ms[i] = Member{Addr: fmt.Sprintf("m%d", i),
					Dial: func() (Node, error) { return nil, errors.New("unreachable") }}
				continue
			}
			ms[i] = Member{Addr: fmt.Sprintf("m%d", i), Node: n, Dial: func() (Node, error) { return n, nil }}
		}
		return ms
	}
	opts := quietOpts()
	opts.NV = nv
	// First process: node 2 down at open, no persisted record of it.
	v, err := Open(mk(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	shadow := fillVolume(t, v, 23)
	v.Close()

	// Second process: node 2 answers again, but its disk is blank.
	nodes[2] = newMemNode(16 * 4096)
	v2, err := Open(mk(-1), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if got, want := v2.NodeStates()[2].StaleStripes, v2.Geometry().Stripes(); got != want {
		t.Fatalf("stale after reopen = %d, want all %d (suspect verdict lost)", got, want)
	}
	// Reads must come from reconstruction, not the blank disk...
	got := make([]byte, v2.Capacity())
	if _, err := v2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("blank rejoined node served garbage")
	}
	// ...until a heal sweep rebuilds it for real.
	if rep, err := v2.HealNode(context.Background(), 2, false); err != nil || rep.Remaining != 0 || len(rep.Lost) != 0 {
		t.Fatalf("heal = %+v, %v", rep, err)
	}
	if err := v2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	bad, skipped, err := v2.VerifyParity(context.Background())
	if err != nil || len(bad) != 0 || skipped != 0 {
		t.Fatalf("VerifyParity = (%v, %d, %v), want clean", bad, skipped, err)
	}
}

// TestMarksRecovery: an unusable marking-memory image must trigger the
// paper's recovery — everything marked for parity rebuild, loudly.
func TestMarksRecovery(t *testing.T) {
	nv := &core.MemNVRAM{}
	if err := nv.Store([]byte("definitely not a marks image")); err != nil {
		t.Fatal(err)
	}
	opts := quietOpts()
	opts.NV = nv
	members := make([]Member, 4)
	for i := range members {
		members[i] = Member{Addr: fmt.Sprintf("m%d", i), Node: newMemNode(16 * 4096)}
	}
	v, err := Open(members, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if !v.Stats().NVRAMRecovered {
		t.Error("NVRAMRecovered not flagged")
	}
	if got, want := v.DirtyStripes(), v.Geometry().Stripes(); got != want {
		t.Errorf("dirty after recovery = %d, want all %d", got, want)
	}
	if err := v.Flush(context.Background()); err != nil {
		t.Fatalf("recovery flush: %v", err)
	}
	bad, skipped, err := v.VerifyParity(context.Background())
	if err != nil || len(bad) != 0 || skipped != 0 {
		t.Fatalf("VerifyParity after recovery = (%v, %d, %v)", bad, skipped, err)
	}
}

// TestClosedVolume checks post-Close calls fail with core.ErrClosed.
func TestClosedVolume(t *testing.T) {
	v, _ := testVolume(t, 3, 16*4096, quietOpts())
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadAt(make([]byte, 4096), 0); !errors.Is(err, core.ErrClosed) {
		t.Errorf("ReadAt after Close = %v, want core.ErrClosed", err)
	}
	if err := v.Flush(context.Background()); !errors.Is(err, core.ErrClosed) {
		t.Errorf("Flush after Close = %v, want core.ErrClosed", err)
	}
	if err := v.Close(); !errors.Is(err, core.ErrClosed) {
		t.Errorf("second Close = %v, want core.ErrClosed", err)
	}
}

// TestStatMapCoversEveryCounter is the cluster row of afraidd's
// TestStatCoversEveryCounter: every counter of the volume's store, under
// core's name, and every node counter the volume keeps is a "cluster." key
// of StatMap, with live values, so a counter added where it is counted
// shows up with no list to edit. The node counters are the volume's own:
// none of them is a store counter declared a second time.
func TestStatMapCoversEveryCounter(t *testing.T) {
	v, _ := testVolume(t, 4, 16*4096, quietOpts())
	fillVolume(t, v, 1)
	m := v.StatMap()
	coreT := reflect.TypeOf(core.Stats{})
	var fields []reflect.StructField
	for i := 0; i < coreT.NumField(); i++ {
		fields = append(fields, coreT.Field(i))
	}
	rt := reflect.TypeOf(Stats{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Anonymous {
			continue
		}
		if _, dup := coreT.FieldByName(f.Name); dup {
			t.Errorf("Stats.%s declares a field core.Stats has: the store's counter is the store's", f.Name)
		}
		fields = append(fields, f)
	}
	for _, f := range fields {
		if k := f.Type.Kind(); k != reflect.Bool && (k < reflect.Int || k > reflect.Uint64) {
			t.Errorf("Stats.%s is a %s: not something the flat snapshot carries", f.Name, f.Type)
			continue
		}
		if _, ok := m["cluster."+obs.KeyName(f.Name)]; !ok {
			t.Errorf("StatMap has no %q", "cluster."+obs.KeyName(f.Name))
		}
	}
	for _, key := range []string{"cluster.writes", "cluster.bytes_written", "cluster.full_stripe_writes"} {
		if m[key] <= 0 {
			t.Errorf("StatMap %s = %d after a fill, want > 0", key, m[key])
		}
	}
}

// TestVolumeOpAllocBytes pins what a healthy unit-sized op allocates in the
// volume itself: 64 KiB unit-aligned reads and writes — one stripe, one
// extent, one node — through in-process nodes, hedging off, as the
// cluster benchmark drives it. The span slice is pooled and a healthy
// stripe's health snapshot lists nothing, so what is left is the per-node
// deadline context (context.WithTimeout: the context, its timer and its
// cancel closure): 272 B per op, where splitting into a fresh span slice
// made it 368 B. The bound sits between the two.
func TestVolumeOpAllocBytes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	const unit, ops = 64 << 10, 200
	opts := quietOpts()
	opts.StripeUnit, opts.HedgeDelay = unit, -1
	members := make([]Member, 4)
	for i := range members {
		members[i] = Member{Addr: "mem", Node: newMemNode(8 * unit)}
	}
	v, err := Open(members, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	buf := make([]byte, unit)
	units := v.Capacity() / unit
	for _, op := range []struct {
		name string
		do   func(p []byte, off int64) (int, error)
	}{{"read", v.ReadAt}, {"write", v.WriteAt}} {
		run := func(n int) {
			for i := 0; i < n; i++ {
				if _, err := op.do(buf, int64(i)%units*unit); err != nil {
					t.Fatal(err)
				}
			}
		}
		run(2 * int(units)) // warm the pools; every stripe marked, so a write's mark is no NVRAM store
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run(ops)
		runtime.ReadMemStats(&m1)
		perOp := (m1.TotalAlloc - m0.TotalAlloc) / ops
		t.Logf("64 KiB %s: %d B allocated per op", op.name, perOp)
		if perOp > 320 {
			t.Errorf("a healthy 64 KiB %s allocates %d B, want at most 320", op.name, perOp)
		}
	}
}

// failNode takes node i out of service, as if its next operation had
// failed: the store fails the member, which demotes the node, demoted all
// the same when the redundancy cannot spare it.
func failNode(v *Volume, i int) {
	if v.st.FailDisk(i) != nil {
		v.nodes[i].Fail()
	}
}
