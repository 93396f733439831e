package cluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"afraid/internal/fault"
	"afraid/internal/server"
	"afraid/internal/testutil"
)

// linkedCluster is a 4-node volume over real TCP: each member is an
// afraidd in miniature (harnessNode) reached over its own connections
// behind a fault.Link, so network faults exercise the genuine
// dial/read/write/redial paths.
type linkedCluster struct {
	nodes []*harnessNode
	links []*fault.Link
	v     *Volume
}

// dialLink opens a client over the link within d, handshake included, as
// server.DialTimeout does over a plain connection.
func dialLink(l *fault.Link, d time.Duration) (Node, error) {
	nc, err := l.Dial(d)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(d))
	return server.NewClient(nc)
}

func newLinkedCluster(t *testing.T, nNodes int, nodeSize int64, opts Options) *linkedCluster {
	t.Helper()
	pc := &linkedCluster{
		nodes: make([]*harnessNode, nNodes),
		links: make([]*fault.Link, nNodes),
	}
	members := make([]Member, nNodes)
	for i := range members {
		pc.nodes[i] = newHarnessNode(t, nodeSize)
		l := fault.NewLink(pc.nodes[i].Addr(), int64(9000+i))
		t.Cleanup(l.KillConns)
		pc.links[i] = l
		members[i] = Member{
			Addr: pc.nodes[i].Addr(),
			Dial: func() (Node, error) { return dialLink(l, 500*time.Millisecond) },
		}
	}
	v, err := Open(members, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	pc.v = v
	return pc
}

func linkOpts() Options {
	return Options{
		StripeUnit:    8 << 10,
		NodeTimeout:   300 * time.Millisecond,
		DialTimeout:   250 * time.Millisecond,
		ProbeInterval: 20 * time.Millisecond,
		DrainIdle:     10 * time.Millisecond,
		HedgeDelay:    -1, // deterministic routing for these tests
	}
}

// TestLinkClusterPartitionDegradesAndSelfHeals: a partitioned node
// (TCP up, every byte held) must be cut loose by NodeTimeout, served
// around degraded, and — once the partition lifts — redialed and healed
// by the prober with no administrator involved.
func TestLinkClusterPartitionDegradesAndSelfHeals(t *testing.T) {
	const unit = 8 << 10
	pc := newLinkedCluster(t, 4, 256<<10, linkOpts())
	v := pc.v
	shadow := fillVolume(t, v, 51)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	pc.links[1].Partition()
	// Reads keep working: the first touch pays NodeTimeout, the demotion
	// moves the volume to reconstruction.
	got := make([]byte, v.Capacity())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("read under partition: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("read under partition diverged")
	}
	// Writes route around the partition under the synchronous protocol.
	buf := bytes.Repeat([]byte{0xA5}, unit)
	if _, err := v.WriteAt(buf, 0); err != nil {
		t.Fatalf("write under partition: %v", err)
	}
	copy(shadow, buf)
	if s := v.NodeStates(); s[1].State == StateUp {
		t.Fatal("partitioned node still up after I/O")
	}
	if st := v.Stats(); st.DegradedReads == 0 {
		t.Error("no degraded reads counted under partition")
	}

	// Partition lifts; the prober redials and auto-heals on its own.
	if err := pc.links[1].Restore(); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, "partitioned node healed", func() bool {
		s := v.NodeStates()
		return s[1].State == StateUp && s[1].StaleStripes == 0
	})
	if st := v.Stats(); st.AutoHeals == 0 {
		t.Error("no auto-heal counted after the partition lifted")
	}
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("final read: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("volume diverged after partition + self-heal")
	}
	if bad, skipped, err := v.VerifyParity(context.Background()); err != nil || len(bad) > 0 || skipped > 0 {
		t.Fatalf("parity verify: bad=%v skipped=%d err=%v", bad, skipped, err)
	}
}

// TestLinkClusterMidFrameReset: a connection reset in the middle of a
// request frame must surface as a node failure (the write is marked
// stale, the node demoted, the span rerouted) — never as silent
// corruption or a wedged volume.
func TestLinkClusterMidFrameReset(t *testing.T) {
	const unit = 8 << 10
	pc := newLinkedCluster(t, 4, 256<<10, linkOpts())
	v := pc.v
	shadow := fillVolume(t, v, 52)
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Arm a reset a little into the next traffic; full-unit writes keep
	// every degraded retry on the covers-the-absent-unit path.
	pc.links[2].ResetAfter(3000)
	buf := make([]byte, unit)
	for st := int64(0); st < 8; st++ {
		for u := int64(0); u < 3; u++ {
			off := (st*3 + u) * unit
			for i := range buf {
				buf[i] = byte(off + int64(i))
			}
			if _, err := v.WriteAt(buf, off); err != nil {
				t.Fatalf("write at %d: %v", off, err)
			}
			copy(shadow[off:], buf)
		}
	}
	if ls := pc.links[2].Stats(); ls.Resets == 0 {
		t.Fatal("armed reset never fired")
	}
	if st := v.Stats(); st.NodeFailovers == 0 {
		t.Error("mid-frame reset did not demote the node")
	}

	// The link is healthy again (ResetAfter disarms after firing):
	// the prober redials and heals whatever the cut write left stale.
	testutil.Eventually(t, "reset node healed", func() bool {
		s := v.NodeStates()
		return s[2].State == StateUp && s[2].StaleStripes == 0
	})
	if err := v.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, v.Capacity())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("final read: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("volume diverged after mid-frame reset")
	}
	if bad, skipped, err := v.VerifyParity(context.Background()); err != nil || len(bad) > 0 || skipped > 0 {
		t.Fatalf("parity verify: bad=%v skipped=%d err=%v", bad, skipped, err)
	}
}
