// Package cluster applies AFRAID's deferred-parity idea across
// machines: a Volume presents one logical block space striped over N+1
// afraidd nodes, each node an independent block store reached over the
// network (internal/server's protocol). Placement reuses
// internal/layout's left-symmetric RAID-5 geometry with nodes in the
// disk role — every stripe has N data units on N distinct nodes and one
// XOR parity unit on another, with the parity role rotating so no
// single node becomes the parity-write bottleneck.
//
// Parity is deferred cluster-wide, exactly as the paper defers it
// across spindles: a write lands on the data nodes immediately, the
// stripe is marked unredundant in the volume's marking memory (an
// nvram.Engine, optionally persisted through a core.NVRAM), and a
// background drain rebuilds the parity unit during idle periods or once
// the dirty backlog exceeds the bounded unredundancy window. The
// paper's loss contract carries over at node granularity: if a node is
// lost, data loss is confined to stripes that were unredundant at the
// moment of failure, and is always reported (ErrDataLoss), never
// served silently.
//
// When a node dies the volume degrades rather than fails: reads of its
// units reconstruct from the surviving N-1 data units plus parity, and
// writes switch to a synchronous degraded protocol (parity maintained
// in-line) so no *new* exposure accrues while redundancy is already
// spent. Stripes written around a down node are tracked in the node's
// stale map, in the same marking memory; when the node returns, a
// background heal rewrites exactly those units from the survivors and
// hands the backlog back to the drain. FaultNode wraps a node with
// fail-stop, slow-node and flap injection for tests; network faults
// (partitions, resets) come from fault.Proxy in front of a real server.
package cluster

import (
	"context"
	"errors"
	"fmt"
)

// Node is what the volume needs from one cluster member: the block
// surface of internal/server's Client, plus the cheap liveness probe.
// *server.Client satisfies it; tests substitute in-process loopbacks
// and fault injectors.
type Node interface {
	ReadAtContext(ctx context.Context, p []byte, off int64) (int, error)
	WriteAtContext(ctx context.Context, p []byte, off int64) (int, error)
	Flush(ctx context.Context) error
	Ping(ctx context.Context) error
	Capacity() int64
	Close() error
}

// Member describes one node position at Open time. Node may be nil when
// the member is unreachable; Dial, when set, lets the volume (re)connect
// — at open, from the health prober, and on HealNode.
type Member struct {
	Addr string // label for status output; not interpreted
	Node Node
	Dial func() (Node, error)
}

// Errors reported by the volume.
var (
	// ErrNodeDown marks an operation that needed a node the volume
	// currently considers unreachable.
	ErrNodeDown = errors.New("cluster: node down")
	// ErrTooManyNodes means the stripes touched need more simultaneous
	// survivors than are up: one lost node degrades, two (data-bearing)
	// lost nodes exceed single-parity redundancy.
	ErrTooManyNodes = errors.New("cluster: too many nodes down")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("cluster: volume is closed")
	// ErrDegraded is returned by Flush when dirty stripes could not be
	// drained because a node they need is down; they stay marked.
	ErrDegraded = errors.New("cluster: volume degraded, stripes left unredundant")
)

// NodeState is a member's reachability as the volume sees it.
type NodeState int

const (
	// StateUp means the node answers requests. It may still carry stale
	// stripe units (state Healing is reported while it does).
	StateUp NodeState = iota
	// StateDown means the node is unreachable: reads of its units are
	// served degraded, writes route around it synchronously.
	StateDown
	// StateHealing is reported for a reachable node whose stale map is
	// non-empty: a heal sweep (or routed writes) are still rebuilding
	// units it missed while down.
	StateHealing
	// StateQuarantined is a down node the flap damper has fenced off:
	// it failed FlapThreshold times inside FlapWindow, so the prober
	// stops redialing and auto-healing it until an administrator
	// (ClearQuarantine, HealNode) or the QuarantineDecay timer clears
	// it. I/O routing is unchanged — the node is still down — the
	// quarantine only ends the heal storm.
	StateQuarantined
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	case StateHealing:
		return "healing"
	case StateQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// NodeInfo is one member's row in a volume status snapshot.
type NodeInfo struct {
	Index        int
	Addr         string
	State        NodeState
	StaleStripes int64  // units this node missed while down, not yet healed
	LastErr      string // error that last marked the node down ("" when up)
	ConsecFails  int    // demotions since the last clean heal
}
