package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/server"
)

// harnessNode is one real afraidd in miniature: a server.Server over a
// single-device in-memory store, restartable on a fresh port with the
// store's contents intact (the "machine rebooted, disk survived" case).
type harnessNode struct {
	t     testing.TB
	store *core.Store

	mu   sync.Mutex
	srv  *server.Server
	lis  net.Listener
	addr string
	done chan error
}

func newHarnessNode(t testing.TB, size int64) *harnessNode {
	t.Helper()
	st, err := core.Open(
		[]core.BlockDevice{core.NewMemDevice(size)},
		&core.MemNVRAM{},
		core.Options{Mode: core.Raid0, StripeUnit: 8 << 10, ScrubIdle: time.Hour},
	)
	if err != nil {
		t.Fatal(err)
	}
	h := &harnessNode{t: t, store: st}
	h.start()
	t.Cleanup(func() {
		h.stop()
		st.Close()
	})
	return h
}

func (h *harnessNode) start() {
	h.t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.t.Fatal(err)
	}
	srv := server.New(h.store, server.Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	h.mu.Lock()
	h.srv, h.lis, h.addr, h.done = srv, lis, lis.Addr().String(), done
	h.mu.Unlock()
}

// stop kills the server abruptly — connections die mid-flight — while
// the backing store stays open and intact.
func (h *harnessNode) stop() {
	h.mu.Lock()
	srv, done := h.srv, h.done
	h.srv = nil
	h.mu.Unlock()
	if srv == nil {
		return
	}
	srv.Close()
	if err := <-done; err != nil && !errors.Is(err, server.ErrServerClosed) {
		h.t.Errorf("Serve: %v", err)
	}
}

// Addr returns the node's current listen address (changes on restart).
func (h *harnessNode) Addr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.addr
}

// TestHarnessFourNodeCrashDegradedHealCycle is the acceptance cycle
// over real TCP afraidd nodes: write under load, kill a node, verify
// degraded reads and writes, restart the node process over its
// surviving store, heal, and end fully redundant and byte-identical.
func TestHarnessFourNodeCrashDegradedHealCycle(t *testing.T) {
	const nNodes = 4
	hnodes := make([]*harnessNode, nNodes)
	members := make([]Member, nNodes)
	for i := range hnodes {
		hnodes[i] = newHarnessNode(t, 2<<20)
		h := hnodes[i]
		members[i] = Member{
			Addr: h.Addr(),
			Dial: func() (Node, error) {
				c, err := server.DialTimeout(h.Addr(), 2*time.Second)
				if err != nil {
					return nil, err
				}
				return c, nil
			},
		}
	}
	v, err := Open(members, Options{
		StripeUnit:  32 << 10,
		DrainIdle:   20 * time.Millisecond,
		NodeTimeout: 5 * time.Second,
		DialTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	capacity := v.Capacity()
	shadow := make([]byte, capacity)
	rng := rand.New(rand.NewSource(20260808))
	rng.Read(shadow)

	// Concurrent writers, each owning a disjoint region: the volume
	// must take cluster writes in parallel (this is the -race target).
	var wg sync.WaitGroup
	region := capacity / 4
	errs := make([]error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * region
			for off := base; off < base+region; off += 24 << 10 {
				n := int64(24 << 10)
				if off+n > base+region {
					n = base + region - off
				}
				if _, err := v.WriteAt(shadow[off:off+n], off); err != nil {
					errs[w] = fmt.Errorf("writer %d at %d: %w", w, off, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// Kill node 1's process mid-life. Its store (the "disk") survives.
	const victim = 1
	hnodes[victim].stop()

	// Degraded reads: every byte still correct.
	got := make([]byte, capacity)
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("degraded read mismatch")
	}
	if st := v.Stats(); st.DegradedReads == 0 || st.NodeFailovers == 0 {
		t.Fatalf("crash not visible in stats: %+v", st)
	}
	if v.NodeStates()[victim].State != StateDown {
		t.Fatalf("victim state = %v, want down", v.NodeStates()[victim].State)
	}

	// Degraded writes: routed around the dead node, parity maintained.
	for i := 0; i < 8; i++ {
		off := rng.Int63n(capacity - (40 << 10))
		buf := make([]byte, 40<<10)
		rng.Read(buf)
		if _, err := v.WriteAt(buf, off); err != nil {
			t.Fatalf("degraded write %d: %v", i, err)
		}
		copy(shadow[off:], buf)
	}

	// Restart the node process over the same store, new port, and heal.
	hnodes[victim].start()
	rep, err := v.HealNode(context.Background(), victim, false)
	if err != nil {
		t.Fatalf("HealNode: %v", err)
	}
	if len(rep.Lost) != 0 {
		t.Fatalf("heal lost stripes %v; volume was redundant at crash", rep.Lost)
	}
	if err := v.Flush(context.Background()); err != nil {
		t.Fatalf("post-heal Flush: %v", err)
	}
	if n := v.DirtyStripes(); n != 0 {
		t.Fatalf("%d dirty stripes after heal+flush", n)
	}
	bad, skipped, err := v.VerifyParity(context.Background())
	if err != nil || len(bad) != 0 || skipped != 0 {
		t.Fatalf("VerifyParity = (%v, %d, %v), want clean", bad, skipped, err)
	}

	// Final proof the heal rebuilt real bytes: kill a different node and
	// read everything through reconstruction that leans on the healed
	// units.
	hnodes[3].stop()
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("read after second crash: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("mismatch after heal + second crash")
	}
}

// TestHarnessOpenWithDeadNodeAndLateJoin: a volume must open and serve
// degraded when a member is unreachable at Open, and absorb the member
// when it appears later via heal (full rebuild: its disk is blank).
func TestHarnessOpenWithDeadNode(t *testing.T) {
	const nNodes = 4
	hnodes := make([]*harnessNode, nNodes)
	members := make([]Member, nNodes)
	for i := range hnodes {
		hnodes[i] = newHarnessNode(t, 1<<20)
		h := hnodes[i]
		members[i] = Member{
			Addr: h.Addr(),
			Dial: func() (Node, error) {
				c, err := server.DialTimeout(h.Addr(), 2*time.Second)
				if err != nil {
					return nil, err
				}
				return c, nil
			},
		}
	}
	hnodes[2].stop() // dead before the volume ever saw it
	v, err := Open(members, Options{
		StripeUnit:   32 << 10,
		DisableDrain: true,
		NodeTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if v.NodeStates()[2].State != StateDown {
		t.Fatalf("node 2 state = %v, want down", v.NodeStates()[2].State)
	}
	// Everything the dead node would hold is conservatively suspect.
	if got, want := v.NodeStates()[2].StaleStripes, v.Geometry().Stripes(); got != want {
		t.Fatalf("stale stripes = %d, want all %d", got, want)
	}
	shadow := fillVolume(t, v, 17)
	got := make([]byte, v.Capacity())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("mismatch with node dead from the start")
	}
	// The node comes up (blank store): heal sweeps its whole stale map.
	hnodes[2].start()
	rep, err := v.HealNode(context.Background(), 2, false)
	if err != nil {
		t.Fatalf("HealNode: %v", err)
	}
	if rep.Remaining != 0 {
		t.Fatalf("heal left %d stripes", rep.Remaining)
	}
	if err := v.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	hnodes[0].stop()
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("read leaning on late-joined node: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("late-joined node serving wrong bytes")
	}
}
