package nvram

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/testutil"
)

// The engine's contract, tested on the engine alone: a fake persister
// stands in for the NVRAM and a fake callback for the client's rebuild.

// fakeNV records every image stored, can hold stores at a gate, and can
// fail a chosen store.
type fakeNV struct {
	mu     sync.Mutex
	img    []byte
	images [][]byte
	failAt int           // 1-based index of the store to fail; 0 = none
	gate   chan struct{} // when non-nil, every Store waits for it to close
}

func (n *fakeNV) Load() ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]byte(nil), n.img...), nil
}

func (n *fakeNV) Store(img []byte) error {
	n.mu.Lock()
	gate := n.gate
	n.mu.Unlock()
	if gate != nil {
		<-gate
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.images = append(n.images, append([]byte(nil), img...))
	if len(n.images) == n.failAt {
		return errors.New("fakeNV: store failed")
	}
	n.img = n.images[len(n.images)-1]
	return nil
}

func (n *fakeNV) stores() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.images)
}

// durable is the marking memory as a crash right now would find it.
func (n *fakeNV) durable(t *testing.T) *Bitmap {
	t.Helper()
	img, _ := n.Load()
	bm, err := Deserialize(img)
	if err != nil {
		t.Fatalf("durable image unusable: %v", err)
	}
	return bm
}

// fakeClient is a MakeRedundant callback with one lock per unit, a
// scripted outcome per unit, and a check that no unit is ever inside two
// callbacks at once.
type fakeClient struct {
	locks   [16]sync.Mutex
	mu      sync.Mutex
	inside  map[int64]bool
	calls   map[int64]int
	outcome map[int64]Outcome // default Done
	overlap atomic.Bool
	during  func(unit int64) // runs after Proceed said yes, unit lock held
}

func newFakeClient() *fakeClient {
	return &fakeClient{inside: map[int64]bool{}, calls: map[int64]int{}, outcome: map[int64]Outcome{}}
}

func (c *fakeClient) makeRedundant(_ context.Context, cl Claim) (Outcome, error) {
	c.mu.Lock()
	if c.inside[cl.Unit] {
		c.overlap.Store(true)
	}
	c.inside[cl.Unit] = true
	c.calls[cl.Unit]++
	out, during := c.outcome[cl.Unit], c.during
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inside, cl.Unit)
		c.mu.Unlock()
	}()
	lk := &c.locks[cl.Unit%int64(len(c.locks))]
	lk.Lock()
	defer lk.Unlock()
	if !cl.Proceed() {
		return Skip, nil
	}
	if during != nil {
		during(cl.Unit)
	}
	return out, nil
}

func (c *fakeClient) setDuring(f func(unit int64)) {
	c.mu.Lock()
	c.during = f
	c.mu.Unlock()
}

func (c *fakeClient) setOutcome(unit int64, o Outcome) {
	c.mu.Lock()
	c.outcome[unit] = o
	c.mu.Unlock()
}

func (c *fakeClient) called(unit int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[unit]
}

func (c *fakeClient) totalCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.calls {
		n += k
	}
	return n
}

func newTestEngine(t *testing.T, cfg Config, c *fakeClient) *Engine {
	t.Helper()
	if cfg.Units == 0 {
		cfg.Units = 128
	}
	if cfg.Idle == 0 {
		cfg.Idle = time.Hour
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	cfg.MakeRedundant = c.makeRedundant
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustMark(t *testing.T, e *Engine, units ...int64) {
	t.Helper()
	for _, u := range units {
		if err := e.Mark(u); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMarkIsDurableBeforeItReturns(t *testing.T) {
	nv := &fakeNV{}
	e := newTestEngine(t, Config{NV: nv}, newFakeClient())
	for _, u := range []int64{5, 77, 6} {
		mustMark(t, e, u)
		if !nv.durable(t).IsMarked(u) {
			t.Fatalf("Mark(%d) returned before an image showing it was stored", u)
		}
	}
	before := nv.stores()
	mustMark(t, e, 77) // already marked: nothing to store
	if nv.stores() != before {
		t.Fatal("re-marking a marked unit stored an image")
	}
	if a := testing.AllocsPerRun(100, func() { e.Mark(77); e.Touch(); e.End(time.Now()); e.Kick() }); a != 0 {
		t.Fatalf("the already-marked fast path allocates (%.1f allocs)", a)
	}
}

// MarkRange makes a whole request's marks durable behind one store, and
// like Mark stores nothing when they all stand — the form in which each
// unit's writer asserts its mark again under its own lock.
func TestMarkRangeIsOneStore(t *testing.T) {
	nv := &fakeNV{}
	c := newFakeClient()
	e := newTestEngine(t, Config{NV: nv}, c)
	c.setOutcome(12, Hold)
	mustMark(t, e, 12)
	if _, err := e.DrainAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := nv.stores()
	if err := e.MarkRange(10, 18); err != nil {
		t.Fatal(err)
	}
	if got := nv.stores() - before; got != 1 {
		t.Fatalf("MarkRange over 8 units cost %d stores, want 1", got)
	}
	for u := int64(10); u < 18; u++ {
		if !nv.durable(t).IsMarked(u) {
			t.Fatalf("MarkRange returned before an image showing unit %d was stored", u)
		}
	}
	if len(e.Held()) != 0 {
		t.Fatal("marking a held unit again did not end the hold")
	}
	if st := e.Stats(); st.HighWater != 8 {
		t.Fatalf("HighWater = %d, want 8", st.HighWater)
	}
	before = nv.stores()
	if err := e.MarkRange(10, 18); err != nil {
		t.Fatal(err)
	}
	if nv.stores() != before {
		t.Fatal("re-marking marked units stored an image")
	}
}

// Clear is lazy: the image keeps the mark — a crash costs one spurious
// rebuild — until something stores again. Sync is that something when
// nothing else is, requested drains end with it, and with nothing behind
// it stores nothing. A store that failed is tried again.
func TestClearIsLazyUntilSync(t *testing.T) {
	nv := &fakeNV{}
	e := newTestEngine(t, Config{NV: nv}, newFakeClient())
	mustMark(t, e, 3, 4, 5)
	before := nv.stores()
	if !e.Clear(3) || e.Clear(3) {
		t.Fatal("Clear does not report whether the unit was marked")
	}
	if nv.stores() != before || !nv.durable(t).IsMarked(3) {
		t.Fatal("Clear stored an image")
	}
	mustMark(t, e, 9) // the next store carries the clear with it
	if nv.durable(t).IsMarked(3) {
		t.Fatal("a store after Clear still shows the cleared unit")
	}
	e.Clear(4)
	for i, level := range []func() error{
		e.Sync,
		func() error { _, err := e.DrainRange(context.Background(), 100, 101); return err },
		func() error { _, err := e.DrainAll(context.Background()); return err },
	} {
		before = nv.stores()
		if err := level(); err != nil {
			t.Fatal(err)
		}
		if got := nv.durable(t).Count(); got != e.Count() {
			t.Fatalf("case %d: image shows %d marks, memory has %d", i, got, e.Count())
		}
		if i == 0 && nv.stores() != before+1 {
			t.Fatalf("Sync stored %d images for one lazy clear", nv.stores()-before)
		}
		before = nv.stores()
		if err := e.Sync(); err != nil || nv.stores() != before {
			t.Fatalf("case %d: Sync with a level image stored again (err %v)", i, err)
		}
		mustMark(t, e, 20+int64(i))
		e.Clear(20 + int64(i))
	}

	nv.mu.Lock()
	nv.failAt = len(nv.images) + 1
	nv.mu.Unlock()
	if err := e.Sync(); err == nil {
		t.Fatal("Sync hid a failed store")
	}
	if err := e.Sync(); err != nil {
		t.Fatalf("Sync after a failed store: %v", err)
	}
	if got := nv.durable(t).Count(); got != e.Count() {
		t.Fatalf("image shows %d marks after the retried store, memory has %d", got, e.Count())
	}
}

// A mark found in the image at load is inherited — it may stand for a
// write a crash tore — and stays so, whatever marks it again, until the
// unit is made redundant. An image Close stored hands its marks down
// plain, and only to the load that reads it: a crash after that inherits
// them again.
func TestInheritedMarks(t *testing.T) {
	nv, c := &fakeNV{}, newFakeClient()
	e := newTestEngine(t, Config{NV: nv}, c)
	mustMark(t, e, 3, 5)
	e = newTestEngine(t, Config{NV: nv}, c) // a crash: the image as it stands
	for u, want := range map[int64]bool{3: true, 5: true, 7: false} {
		if marked, inherited, _ := e.State(u); marked != want || inherited != want {
			t.Fatalf("unit %d after a crash: marked %v, inherited %v; want %v", u, marked, inherited, want)
		}
	}
	mustMark(t, e, 3, 7)
	if _, inherited, _ := e.State(3); !inherited {
		t.Fatal("marking an inherited unit again made its mark this incarnation's")
	}
	if _, inherited, _ := e.State(7); inherited {
		t.Fatal("a mark set after load reads as inherited")
	}
	e.Clear(5)
	if _, err := e.DrainRange(context.Background(), 3, 4); err != nil {
		t.Fatal(err)
	}
	mustMark(t, e, 3, 5)
	for _, u := range []int64{3, 5} {
		if _, inherited, _ := e.State(u); inherited {
			t.Fatalf("unit %d made redundant and marked again still reads as inherited", u)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = newTestEngine(t, Config{NV: nv}, c)
	if marked, inherited, _ := e.State(3); !marked || inherited {
		t.Fatalf("after a clean close: marked %v, inherited %v", marked, inherited)
	}
	e = newTestEngine(t, Config{NV: nv}, c)
	if _, inherited, _ := e.State(3); !inherited {
		t.Fatal("a crash after a clean close's load inherits nothing: the flag outlived its load")
	}
}

// A distrusted mark reads as inherited until the unit is made redundant,
// an unmarked unit cannot be distrusted, and while such a mark stands a
// clean close leaves the image unflagged: the next load inherits it all.
func TestDistrustedMarks(t *testing.T) {
	nv, c := &fakeNV{}, newFakeClient()
	e := newTestEngine(t, Config{NV: nv}, c)
	mustMark(t, e, 3, 5)
	e.Distrust(3)
	e.Distrust(7)
	for u, want := range map[int64][2]bool{3: {true, true}, 5: {true, false}, 7: {false, false}} {
		if marked, inherited, _ := e.State(u); marked != want[0] || inherited != want[1] {
			t.Fatalf("unit %d: marked %v, inherited %v; want %v", u, marked, inherited, want)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = newTestEngine(t, Config{NV: nv}, c)
	for _, u := range []int64{3, 5} {
		if _, inherited, _ := e.State(u); !inherited {
			t.Fatalf("unit %d: a clean close with a distrusted mark standing handed it down as trusted", u)
		}
	}
}

// A store reuses the engine's image buffer: marking and clearing on a
// marking memory that keeps nothing allocates nothing.
func TestStoresDoNotAllocate(t *testing.T) {
	e := newTestEngine(t, Config{NV: discardNV{}}, newFakeClient())
	mustMark(t, e, 1)
	if a := testing.AllocsPerRun(100, func() { e.MarkRange(40, 48); e.Clear(40); e.Sync(); e.MarkRange(40, 41) }); a != 0 {
		t.Fatalf("storing an image allocates (%.1f allocs per round of two stores)", a)
	}
}

type discardNV struct{}

func (discardNV) Load() ([]byte, error) { return nil, nil }
func (discardNV) Store([]byte) error    { return nil }

// Marks that pile up behind a store in flight are covered by the next
// one: N concurrent marks cost fewer than N stores, every image is a
// superset of the one before (generation order), and each Mark still
// returns only once it is durable.
func TestGroupCommitBatchesAndOrders(t *testing.T) {
	const n = 8
	nv := &fakeNV{gate: make(chan struct{})}
	e := newTestEngine(t, Config{NV: nv}, newFakeClient())
	var wg sync.WaitGroup
	for u := int64(0); u < n; u++ {
		wg.Add(1)
		go func(u int64) {
			defer wg.Done()
			if err := e.Mark(u); err != nil {
				t.Error(err)
			}
			if !nv.durable(t).IsMarked(u) {
				t.Errorf("Mark(%d) returned before it was durable", u)
			}
		}(u)
	}
	testutil.Eventually(t, "every mark to be applied and waiting", func() bool { return e.Count() == n })
	if nv.stores() != 0 {
		t.Fatal("a store completed through a closed gate")
	}
	close(nv.gate)
	wg.Wait()
	if got := nv.stores(); got >= n {
		t.Fatalf("%d marks cost %d stores; want batching", n, got)
	}
	if got := e.Stats().Persists; int(got) != nv.stores() {
		t.Fatalf("Stats.Persists = %d, NVRAM saw %d stores", got, nv.stores())
	}
	var prev *Bitmap
	for i, img := range nv.images {
		bm, err := Deserialize(img)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for _, u := range prev.Marked() {
				if !bm.IsMarked(u) {
					t.Fatalf("image %d lost unit %d that image %d had: stored out of generation order", i, u, i-1)
				}
			}
		}
		prev = bm
	}
}

// A failed store is reported to every Mark it was covering.
func TestFailedStoreReachesEveryWaiterItCovered(t *testing.T) {
	const n = 4
	nv := &fakeNV{gate: make(chan struct{}), failAt: 2}
	e := newTestEngine(t, Config{NV: nv}, newFakeClient())
	errs := make([]error, 1+n)
	var wg sync.WaitGroup
	mark := func(u int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[u] = e.Mark(u)
		}()
	}
	mark(0) // leads store 1, alone
	testutil.Eventually(t, "the leader to reach the gate", func() bool { return e.Count() == 1 })
	for u := int64(1); u <= n; u++ {
		mark(u) // all covered by store 2, which fails
	}
	testutil.Eventually(t, "the followers to queue", func() bool { return e.Count() == 1+n })
	close(nv.gate)
	wg.Wait()
	if errs[0] != nil {
		t.Fatalf("Mark(0), covered by the good store, got %v", errs[0])
	}
	for u := 1; u <= n; u++ {
		if errs[u] == nil {
			t.Fatalf("Mark(%d) was covered only by the failed store but returned nil", u)
		}
	}
	if err := e.Commit(); err != nil { // the next store covers them after all
		t.Fatal(err)
	}
	if got := nv.durable(t).Count(); got != 1+n {
		t.Fatalf("durable marks after recovery commit = %d, want %d", got, 1+n)
	}
}

// The bit in memory is not the mark in NVRAM: a Mark that finds its unit
// already marked — by a MarkRange whose store is still in flight — waits
// for that store, and one that finds the last store failed stores again.
// Clears that lag behind the image make no Mark wait or store.
func TestMarkOfAMarkedUnitWaitsForItsStore(t *testing.T) {
	nv := &fakeNV{gate: make(chan struct{}), failAt: 2}
	e := newTestEngine(t, Config{NV: nv}, newFakeClient())
	ranged := make(chan error, 1)
	go func() { ranged <- e.MarkRange(0, 4) }()
	testutil.Eventually(t, "the range's marks to be applied", func() bool { return e.Count() == 4 })
	single := make(chan error, 1)
	go func() { single <- e.Mark(1) }()
	select {
	case err := <-single:
		t.Fatalf("Mark of a unit whose mark is not yet stored returned %v with %d images in NVRAM", err, nv.stores())
	case <-time.After(20 * time.Millisecond):
	}
	close(nv.gate)
	if err := <-ranged; err != nil {
		t.Fatal(err)
	}
	if err := <-single; err != nil {
		t.Fatal(err)
	}
	if !nv.durable(t).IsMarked(1) || nv.stores() != 1 {
		t.Fatalf("after both marks: %d stores, unit 1 durable = %v; want the one store, shared", nv.stores(), nv.durable(t).IsMarked(1))
	}

	e.Clear(3) // lags: nobody waits for a Clear
	if err := e.Mark(1); err != nil || nv.stores() != 1 {
		t.Fatalf("Mark of a durably marked unit behind a lazy Clear: err %v, %d stores, want nil and no store", err, nv.stores())
	}
	if err := e.Mark(5); err == nil { // store 2 fails: unit 5 is marked in memory only
		t.Fatal("the failed store was not reported")
	}
	if err := e.Mark(5); err != nil || !nv.durable(t).IsMarked(5) {
		t.Fatalf("Mark after a failed store: err %v, durable = %v; want it stored again", err, nv.durable(t).IsMarked(5))
	}
}

func TestDrainsNeverShareAUnit(t *testing.T) {
	c := newFakeClient()
	e := newTestEngine(t, Config{NV: &fakeNV{}, Idle: time.Millisecond, Threshold: 4}, c)
	e.Start()
	defer e.Stop()
	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				e.Touch()
				if err := e.Mark(w*32 + i%32); err != nil {
					t.Error(err)
					return
				}
				e.End(time.Now())
				e.Kick()
				if i%50 == 0 {
					if _, err := e.DrainRange(context.Background(), w*32, w*32+32); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.DrainAll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	res, err := e.DrainAll(context.Background())
	if err != nil || res.Skipped != 0 || len(res.Held) != 0 || e.Count() != 0 {
		t.Fatalf("final DrainAll = %+v, %v with %d still marked", res, err, e.Count())
	}
	if c.overlap.Load() {
		t.Fatal("a unit was inside two callbacks at once")
	}
	st := e.Stats()
	if st.Drained == 0 || st.HighWater == 0 || st.Marked != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A write that marks the unit while its rebuild is running (it cannot
// have been covered by it) keeps the unit marked; the next drain takes it.
func TestMarkDuringCallbackKeepsTheMark(t *testing.T) {
	nv := &fakeNV{}
	c := newFakeClient()
	e := newTestEngine(t, Config{NV: nv}, c)
	c.setDuring(func(u int64) {
		c.setDuring(nil)
		if err := e.Mark(u); err != nil {
			t.Error(err)
		}
	})
	mustMark(t, e, 9)
	if _, err := e.DrainRange(context.Background(), 0, 128); err != nil {
		t.Fatal(err)
	}
	if !isMarked(e, 9) || !nv.durable(t).IsMarked(9) {
		t.Fatal("the rebuild unmarked a unit that was re-marked under it")
	}
	if _, err := e.DrainAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if isMarked(e, 9) || nv.durable(t).IsMarked(9) || c.called(9) != 2 {
		t.Fatalf("second drain: marked=%v calls=%d", isMarked(e, 9), c.called(9))
	}
}

func TestKickIsBounded(t *testing.T) {
	c := newFakeClient()
	e := newTestEngine(t, Config{Threshold: 8}, c) // no Start: only the inline valve runs
	for u := int64(0); u < 16; u++ {
		mustMark(t, e, u)
		e.Kick()
	}
	if c.totalCalls() != 0 {
		t.Fatalf("valve ran %d callbacks at 2×Threshold or below", c.totalCalls())
	}
	for u := int64(16); u < 100; u++ {
		mustMark(t, e, u)
	}
	e.Kick()
	if got := c.totalCalls(); got != MaxInline {
		t.Fatalf("one kick ran %d callbacks, want %d", got, MaxInline)
	}
	if st := e.Stats(); st.Inline != MaxInline || st.Forced != MaxInline || st.Marked != 100-MaxInline {
		t.Fatalf("stats = %+v", st)
	}
}

// The valve looks at one mark per rebuild: its cost does not grow with
// the backlog, and the engine's share of it allocates nothing.
func TestKickDoesNotAllocate(t *testing.T) {
	e, err := NewEngine(Config{Units: 1 << 16, Threshold: 8, Idle: time.Hour,
		MakeRedundant: func(_ context.Context, c Claim) (Outcome, error) {
			if !c.Proceed() {
				return Skip, nil
			}
			return Done, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	for u := int64(0); u < 1<<16; u++ {
		mustMark(t, e, u)
	}
	if a := testing.AllocsPerRun(50, e.Kick); a != 0 {
		t.Fatalf("Kick allocates %.1f times with a backlog of %d", a, e.Count())
	}
}

// Past Threshold the background loop works under load (no idle window
// needed) and stops at the bound.
func TestPressureWakesBackgroundLoop(t *testing.T) {
	c := newFakeClient()
	e := newTestEngine(t, Config{Threshold: 8, Idle: time.Hour}, c)
	e.Start()
	for u := int64(0); u < 14; u++ {
		mustMark(t, e, u)
	}
	e.Kick() // 14 ≤ 2×8: no inline work, just the wake
	testutil.Eventually(t, "the backlog to fall to the bound", func() bool { return e.Count() <= 8 })
	e.Stop() // the loop's episode is over: it ran no further
	st := e.Stats()
	if st.ForcedEpisodes == 0 || st.Inline != 0 || st.Forced != st.Drained {
		t.Fatalf("stats = %+v", st)
	}
	e.Poll() // and another episode, an hour short of idle, has nothing to do
	if e.Count() != 8 {
		t.Fatalf("loop drained to %d; it should stop at the threshold without an idle window", e.Count())
	}
}

func TestHeldUnits(t *testing.T) {
	c := newFakeClient()
	c.outcome[3] = Hold
	clock := &testutil.Clock{}
	e := newTestEngine(t, Config{NV: &fakeNV{}, Idle: time.Millisecond, Threshold: 1, Now: clock.Now}, c)
	mustMark(t, e, 3, 4, 5, 6)
	res, err := e.DrainAll(context.Background())
	if err != nil || !reflect.DeepEqual(res.Held, []int64{3}) || res.Skipped != 0 {
		t.Fatalf("DrainAll = %+v, %v; want unit 3 reported held", res, err)
	}
	if !isMarked(e, 3) || e.Count() != 1 || !reflect.DeepEqual(e.Held(), []int64{3}) {
		t.Fatalf("held unit: marked=%v count=%d held=%v", isMarked(e, 3), e.Count(), e.Held())
	}
	// Every drain skips it: requested, inline and background, where an
	// idle episode walks past it to a unit marked above it.
	for i := 0; i < 3; i++ {
		if res, _ = e.DrainAll(context.Background()); !reflect.DeepEqual(res.Held, []int64{3}) {
			t.Fatalf("DrainAll = %+v", res)
		}
		if res, _ = e.DrainRange(context.Background(), 0, 10); !reflect.DeepEqual(res.Held, []int64{3}) {
			t.Fatalf("DrainRange = %+v", res)
		}
		e.Kick()
		mustMark(t, e, 4)
		clock.Advance(time.Millisecond)
		e.Poll()
		if e.Count() != 1 {
			t.Fatalf("after an idle episode, %v marked; want only the held unit", e.Marked())
		}
	}
	if c.called(3) != 1 {
		t.Fatalf("held unit was handed to the callback %d times", c.called(3))
	}
	// The next Mark releases it...
	c.setOutcome(3, Done)
	mustMark(t, e, 3)
	if len(e.Held()) != 0 {
		t.Fatal("Mark did not release the hold")
	}
	if res, err = e.DrainAll(context.Background()); err != nil || len(res.Held) != 0 || e.Count() != 0 {
		t.Fatalf("after re-mark: %+v, %v, %d marked", res, err, e.Count())
	}
	// ...and so does the client clearing the unit itself.
	c.setOutcome(3, Hold)
	mustMark(t, e, 3)
	e.DrainAll(context.Background())
	if !e.Clear(3) || len(e.Held()) != 0 || e.Count() != 0 {
		t.Fatalf("after Clear: held=%v count=%d", e.Held(), e.Count())
	}
}

func TestSkipKeepsTheMarkAndIsRetried(t *testing.T) {
	c := newFakeClient()
	c.outcome[7] = Skip
	e := newTestEngine(t, Config{NV: &fakeNV{}}, c)
	mustMark(t, e, 7, 8)
	res, err := e.DrainAll(context.Background())
	if err != nil || res.Skipped != 1 || !isMarked(e, 7) || isMarked(e, 8) {
		t.Fatalf("DrainAll = %+v, %v; 7 marked=%v 8 marked=%v", res, err, isMarked(e, 7), isMarked(e, 8))
	}
	first := c.called(7)
	c.setOutcome(7, Done)
	if res, err = e.DrainAll(context.Background()); err != nil || res.Skipped != 0 || e.Count() != 0 {
		t.Fatalf("retry: %+v, %v, %d marked", res, err, e.Count())
	}
	if c.called(7) <= first {
		t.Fatal("skipped unit was not handed out again")
	}
}

// Idle work yields: foreground I/O between the idle sample and the
// client's lock preempts the rebuild and the mark survives. Requested
// drains ignore the generation, or sustained writers could starve them.
func TestIdleWorkIsPreemptedRequestedWorkIsNot(t *testing.T) {
	c := newFakeClient()
	e := newTestEngine(t, Config{Idle: time.Nanosecond}, c) // no Start: the test polls
	mustMark(t, e, 1)
	c.locks[1].Lock() // park the callback between the sample and Proceed
	polled := make(chan struct{})
	go func() { e.Poll(); close(polled) }()
	testutil.Eventually(t, "the idle episode to claim the unit", func() bool { return e.Stats().IdleEpisodes == 1 })
	e.Touch()
	e.End(time.Now())
	c.locks[1].Unlock()
	<-polled
	if st := e.Stats(); st.Preempts != 1 || st.Drained != 0 || !isMarked(e, 1) {
		t.Fatalf("preempted rebuild consumed the mark: %+v", st)
	}
	c.setDuring(func(int64) { e.Touch(); e.End(time.Now()) }) // a writer that never lets up
	if _, err := e.DrainRange(context.Background(), 1, 2); err != nil || isMarked(e, 1) {
		t.Fatalf("requested drain under foreground I/O: err=%v marked=%v", err, isMarked(e, 1))
	}
}

// Skip is one unit's verdict, not the drain's: a unit that cannot be made
// redundant now (in a cluster, a stripe that lost a node for good) must
// not shield the marked units above it from the background episode or
// from the inline valve, which both start at the lowest mark.
func TestSkippedUnitDoesNotShieldTheRest(t *testing.T) {
	c := newFakeClient()
	c.outcome[0] = Skip
	e := newTestEngine(t, Config{Idle: time.Nanosecond}, c)
	mustMark(t, e, 0, 1, 2, 3, 4, 5)
	e.Poll()
	if got := e.Marked(); !reflect.DeepEqual(got, []int64{0}) {
		t.Fatalf("after an idle episode over a skipping unit 0, marked = %v; want only unit 0", got)
	}
	if st := e.Stats(); st.IdleEpisodes != 1 || st.Drained != 5 {
		t.Fatalf("stats = %+v", st)
	}
	calls := c.called(0)
	e.Poll()
	if got := c.called(0) - calls; got != 1 {
		t.Fatalf("an episode with nothing else to do asked about the skipped unit %d times, want once", got)
	}

	c = newFakeClient()
	c.outcome[0], c.outcome[2] = Skip, Skip
	e = newTestEngine(t, Config{Threshold: 2, Idle: time.Hour}, c)
	mustMark(t, e, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	e.Kick()
	if got, want := e.Marked(), []int64{0, 2, 6, 7, 8, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after one kick, marked = %v; want %v (%d made redundant past the skipping units)", got, want, MaxInline)
	}
	if st := e.Stats(); st.Inline != MaxInline {
		t.Fatalf("stats = %+v", st)
	}
	// The forced background episode goes past them too, down to the bound.
	e.Poll()
	if got, want := e.Marked(), []int64{0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after a forced episode, marked = %v; want %v", got, want)
	}
}

// A requested drain waits for a unit another drainer holds rather than
// report it done, and does not wait by polling.
func TestRequestedDrainWaitsForClaimRelease(t *testing.T) {
	c := newFakeClient()
	e := newTestEngine(t, Config{Idle: time.Millisecond}, c)
	mustMark(t, e, 2)
	entered, release := make(chan struct{}), make(chan struct{})
	c.setDuring(func(int64) { close(entered); <-release })
	e.Start()
	defer e.Stop()
	<-entered // the background loop is inside unit 2's rebuild
	done := make(chan error, 1)
	go func() {
		_, err := e.DrainAll(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("DrainAll returned (%v) while unit 2 was still being rebuilt", err)
	case <-time.After(10 * time.Millisecond):
	}
	c.setDuring(nil)
	close(release)
	if err := <-done; err != nil || e.Count() != 0 {
		t.Fatalf("DrainAll: err=%v marked=%d", err, e.Count())
	}
	if c.called(2) != 1 {
		t.Fatalf("unit rebuilt %d times", c.called(2))
	}
}

func TestCallbackErrorStopsTheDrain(t *testing.T) {
	boom := errors.New("boom")
	e, err := NewEngine(Config{Units: 64, Workers: 1, Idle: time.Hour,
		MakeRedundant: func(_ context.Context, c Claim) (Outcome, error) {
			if !c.Proceed() {
				return Skip, nil
			}
			if c.Unit == 3 {
				return Skip, boom
			}
			return Done, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	mustMark(t, e, 1, 3, 5)
	if _, err := e.DrainAll(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("DrainAll = %v, want the callback's error", err)
	}
	if isMarked(e, 1) || !isMarked(e, 3) || !isMarked(e, 5) {
		t.Fatalf("marks after error: %v", e.Marked())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.DrainAll(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("DrainAll on a cancelled context = %v", err)
	}
}

// A requested drain that is waiting for another drainer's claim gives up
// when its context ends, not when the other drainer gets round to it.
func TestRequestedDrainWaitObeysContext(t *testing.T) {
	c := newFakeClient()
	e := newTestEngine(t, Config{Idle: time.Nanosecond}, c)
	mustMark(t, e, 2)
	entered, release := make(chan struct{}), make(chan struct{})
	c.setDuring(func(int64) { close(entered); <-release })
	polled := make(chan struct{})
	go func() { e.Poll(); close(polled) }()
	<-entered // the episode is inside unit 2's rebuild
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.DrainRange(ctx, 0, 10)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("DrainRange returned (%v) while unit 2 was still being rebuilt", err)
	case <-time.After(10 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DrainRange = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DrainRange outlived its cancelled context waiting on a claim")
	}
	close(release)
	<-polled
}

func TestUnusableImagesRecoverAllMarked(t *testing.T) {
	good := NewBitmap(100)
	good.Mark(17)
	for name, img := range map[string][]byte{
		"garbage":    []byte("definitely not a bitmap"),
		"truncated":  good.Serialize()[:12],
		"wrong size": NewBitmap(99).Serialize(),
		"stray bits": append(good.Serialize()[:16], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
	} {
		t.Run(name, func(t *testing.T) {
			nv := &fakeNV{img: img}
			e := newTestEngine(t, Config{Units: 100, NV: nv}, newFakeClient())
			st := e.Stats()
			if !st.Recovered || st.Marked != 100 || st.HighWater != 100 {
				t.Fatalf("stats = %+v, want recovered with all 100 marked", st)
			}
			if got := nv.durable(t).Count(); got != 100 {
				t.Fatalf("recovery stored an image with %d marks", got)
			}
		})
	}
	// A good image and an empty NVRAM are not recoveries.
	nv := &fakeNV{img: good.Serialize()}
	e := newTestEngine(t, Config{Units: 100, NV: nv}, newFakeClient())
	if st := e.Stats(); st.Recovered || st.Marked != 1 || !isMarked(e, 17) || nv.stores() != 0 {
		t.Fatalf("good image: %+v", st)
	}
	e = newTestEngine(t, Config{Units: 100, NV: &fakeNV{}}, newFakeClient())
	if st := e.Stats(); st.Recovered || st.Marked != 0 {
		t.Fatalf("empty NVRAM: %+v", st)
	}
}

// goldenCoreImage is the marking memory internal/core wrote at the
// commit before the engine existed (70 stripes; 0, 3, 63, 64, 69 dirty):
// the bare Bitmap.Serialize format, which must keep loading and must be
// what the engine writes back.
const goldenCoreImage = "460000000000000009000000000000802100000000000000"

func TestGoldenImageFromBeforeTheEngine(t *testing.T) {
	img, err := hex.DecodeString(goldenCoreImage)
	if err != nil {
		t.Fatal(err)
	}
	nv := &fakeNV{img: img}
	e := newTestEngine(t, Config{Units: 70, NV: nv}, newFakeClient())
	if got, want := e.Marked(), []int64{0, 3, 63, 64, 69}; !reflect.DeepEqual(got, want) || e.Stats().Recovered {
		t.Fatalf("loaded marks = %v (recovered=%v), want %v", got, e.Stats().Recovered, want)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nv.images[0], img) {
		t.Fatalf("engine wrote %x, the format before it was %x", nv.images[0], img)
	}
}

// staleEngine is a 70-unit engine over 4 members on nv.
func staleEngine(t *testing.T, nv *fakeNV) *Engine {
	t.Helper()
	return newTestEngine(t, Config{Units: 70, Members: 4, NV: nv}, newFakeClient())
}

// decoded is the marking memory an image holds, or the test fails.
func decoded(t *testing.T, img []byte, units int64, members int) (marks *Bitmap, stale []*Bitmap) {
	t.Helper()
	maps, _, err := decodeImage(slices.Clone(img), units, members)
	if err != nil {
		t.Fatalf("image %x does not decode: %v", img, err)
	}
	return maps[0], maps[1:]
}

// The image is the bare marks while no member has a stale unit — the form
// core wrote before stale units reached the engine — and the AFCLMK1 form
// cluster wrote before otherwise, both byte for byte.
func TestImageForms(t *testing.T) {
	nv := &fakeNV{}
	e := staleEngine(t, nv)
	mustMark(t, e, 0, 3, 63, 64, 69)
	if got, want := hex.EncodeToString(nv.img), goldenCoreImage; got != want {
		t.Fatalf("with nothing stale the image is %s, want the bare marks %s", got, want)
	}
	if err := e.MarkStale(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.MarkStale(1, 64, 65); err != nil {
		t.Fatal(err)
	}
	if err := e.MarkStale(3, 69, 70); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(nv.img), goldenMarksImage; got != want {
		t.Fatalf("with stale units the image is\n%s, want\n%s", got, want)
	}
	for _, s := range []struct {
		member int
		unit   int64
	}{{1, 1}, {1, 64}, {3, 69}} {
		e.ClearStale(s.member, s.unit)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(nv.img), goldenCoreImage; got != want {
		t.Fatalf("with the stale units cleared the image is %s, want the bare marks %s", got, want)
	}
	// A clean close flags the marks' encoding in either form, and the load
	// spends the flag.
	if err := e.MarkStale(2, 5, 7); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = staleEngine(t, nv)
	if _, inherited, stale := e.State(5); inherited || !stale.Has(2) || stale.Has(1) {
		t.Fatalf("after a clean close unit 5 reads inherited=%v stale=%b", inherited, stale)
	}
	if _, inherited, _ := e.State(3); inherited {
		t.Fatal("a clean close handed its marks down as inherited")
	}
	if got := e.StaleUnits(2); !reflect.DeepEqual(got, []int64{5, 6}) || e.StaleCount(2) != 2 || e.StaleCount(0) != 0 {
		t.Fatalf("member 2 stale on %v after the reload", got)
	}
}

// goldenMarksImage is the AFCLMK1 marking memory a 4-node, 70-stripe
// cluster volume wrote before the engine kept stale units: stripes 0, 3,
// 63, 64, 69 dirty, member 1 stale at 1 and 64, member 3 stale at 69.
const goldenMarksImage = "4146434c4d4b310a04000000" +
	"18000000" + "460000000000000009000000000000802100000000000000" +
	"18000000" + "460000000000000000000000000000000000000000000000" +
	"18000000" + "460000000000000002000000000000000100000000000000" +
	"18000000" + "460000000000000000000000000000000000000000000000" +
	"18000000" + "460000000000000000000000000000002000000000000000"

// A stale mark is durable before MarkStale returns and stores nothing when
// it stands; a stale clear is lazy, as Clear is.
func TestMarkStaleIsDurableClearStaleIsLazy(t *testing.T) {
	nv := &fakeNV{}
	e := staleEngine(t, nv)
	if err := e.MarkStale(2, 10, 20); err != nil {
		t.Fatal(err)
	}
	if nv.stores() != 1 {
		t.Fatalf("MarkStale over 10 units cost %d stores, want 1", nv.stores())
	}
	if _, stale := decoded(t, nv.img, 70, 4); stale[2].Count() != 10 || !stale[2].IsMarked(19) {
		t.Fatalf("MarkStale returned before an image showing its units was stored: member 2 stale on %v", stale[2].Marked())
	}
	if err := e.MarkStale(2, 12, 14); err != nil || nv.stores() != 1 {
		t.Fatalf("marking stale units stale again: err %v, %d stores, want nil and no store", err, nv.stores())
	}
	if !e.ClearStale(2, 15) || e.ClearStale(2, 15) || e.ClearStale(1, 15) {
		t.Fatal("ClearStale does not report whether the unit was stale")
	}
	if nv.stores() != 1 {
		t.Fatal("ClearStale stored an image")
	}
	if _, _, stale := e.State(15); stale != 0 {
		t.Fatalf("unit 15 still stale on %b in memory", stale)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, stale := decoded(t, nv.img, 70, 4); stale[2].IsMarked(15) || stale[2].Count() != 9 {
		t.Fatalf("the store after ClearStale shows member 2 stale on %v", stale[2].Marked())
	}
	if _, _, stale := e.State(16); stale != 1<<2 {
		t.Fatalf("State(16) stale = %b, want member 2", stale)
	}
}

// An image for another member count, or with a map that does not decode,
// is unusable: the engine recovers with every unit marked and no member
// stale.
func TestStaleImageMismatchRecovers(t *testing.T) {
	img, err := hex.DecodeString(goldenMarksImage)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		img     []byte
		members int
	}{
		"three members":   {img, 3},
		"five members":    {img, 5},
		"truncated map":   {img[:len(img)-3], 4},
		"trailing bytes":  {append(slices.Clone(img), 0), 4},
		"wrong unit size": {img, 4},
	} {
		t.Run(name, func(t *testing.T) {
			units := int64(70)
			if name == "wrong unit size" {
				units = 71
			}
			nv := &fakeNV{img: slices.Clone(c.img)}
			e := newTestEngine(t, Config{Units: units, Members: c.members, NV: nv}, newFakeClient())
			if st := e.Stats(); !st.Recovered || st.Marked != units {
				t.Fatalf("stats = %+v, want recovered with all %d marked", st, units)
			}
			for m := 0; m < c.members; m++ {
				if n := e.StaleCount(m); n != 0 {
					t.Fatalf("member %d keeps %d stale units through a recovery", m, n)
				}
			}
			if got := nv.durable(t).Count(); got != units {
				t.Fatalf("recovery stored an image with %d marks", got)
			}
		})
	}
	if _, err := NewEngine(Config{Units: 8, Members: maxMembers + 1}); err == nil {
		t.Fatalf("an engine over %d members was built", maxMembers+1)
	}
}

// Stale marks and clears race marks, clears and commits: every image that
// reaches NVRAM decodes, and the last one equals memory.
func TestStaleMarksUnderConcurrentMarking(t *testing.T) {
	nv := &fakeNV{}
	e := newTestEngine(t, Config{Units: 256, Members: 5, NV: nv}, newFakeClient())
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				u := (int64(w)*41 + i*7) % 256
				switch i % 5 {
				case 0:
					if err := e.MarkStale(w%5, u, min(u+9, 256)); err != nil {
						t.Error(err)
					}
				case 1:
					e.ClearStale(w%5, u)
				case 2:
					if err := e.Mark(u); err != nil {
						t.Error(err)
					}
				case 3:
					e.Clear(u)
				default:
					if err := e.Commit(); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	nv.mu.Lock()
	images := nv.images
	nv.mu.Unlock()
	for i, img := range images {
		if _, _, err := decodeImage(slices.Clone(img), 256, 5); err != nil {
			t.Fatalf("image %d of %d does not decode: %v", i, len(images), err)
		}
	}
	marks, stale := decoded(t, nv.img, 256, 5)
	if got := marks.Marked(); !reflect.DeepEqual(got, e.Marked()) {
		t.Fatalf("last image marks %v, memory %v", got, e.Marked())
	}
	for m := range 5 {
		got := []int64{}
		if len(stale) > 0 {
			got = stale[m].Marked()
		}
		if !reflect.DeepEqual(got, e.StaleUnits(m)) {
			t.Fatalf("last image has member %d stale on %v, memory on %v", m, got, e.StaleUnits(m))
		}
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 3, 64} {
		var sum atomic.Int64
		if err := ForEach(context.Background(), workers, 10, 110, func(i int64) error {
			sum.Add(i)
			return nil
		}); err != nil || sum.Load() != (10+109)*100/2 {
			t.Fatalf("workers=%d: sum=%d err=%v", workers, sum.Load(), err)
		}
		boom := errors.New("boom")
		var ran atomic.Int64
		err := ForEach(context.Background(), workers, 0, 1000, func(i int64) error {
			ran.Add(1)
			if i == 5 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || ran.Load() == 1000 {
			t.Fatalf("workers=%d: err=%v after %d items; the first error should stop the pool", workers, err, ran.Load())
		}
	}
	if err := ForEach(context.Background(), 4, 5, 5, func(int64) error { return errors.New("ran") }); err != nil {
		t.Fatalf("empty range ran: %v", err)
	}
}

// isMarked reports whether the engine holds unit unredundant.
func isMarked(e *Engine, unit int64) bool {
	marked, _, _ := e.State(unit)
	return marked
}
