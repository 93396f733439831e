// Package cluster applies AFRAID's deferred-parity idea across
// machines: a Volume presents one logical block space striped over N+1
// afraidd nodes, each reached over the network (internal/server's
// protocol). The volume is a core.Store in Afraid mode whose members are
// the nodes, on internal/layout's left-symmetric RAID-5 geometry: the
// store runs the paper's machine — mark, write, make redundant when idle
// or under pressure — and its loss contract at node granularity.
//
// What the volume adds is what reaches the nodes. Each node slot is a
// member device of the store (nodeio.go) that applies the node deadline
// and sorts the node's errors: a broken connection demotes the node and
// is a fail-stop failure, which the store works around, marking the node
// stale on every stripe it writes around; a node's own ErrDataLoss is one
// lost unit, which the store solves from cluster redundancy and rewrites.
// A node that comes back is redialed and handed back to the store, which
// rebuilds exactly the units it missed. The volume also keeps the health
// prober with its flap damper and the hedge-delay policy. FaultNode wraps
// a node with fail-stop, slow-node and flap injection for tests.
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
	// StateUp means the node answers requests and holds every unit.
	StateUp NodeState = iota
	// StateDown means the volume works around the node: reads of its
	// units are served degraded, writes route around it synchronously.
	StateDown
	// StateHealing is a node back in service with units it missed while
	// down still stale: a heal sweep (or writes) are rebuilding them.
	StateHealing
	// StateQuarantined is a down node the flap damper has fenced off: it
	// failed FlapThreshold times inside FlapWindow, so the prober leaves
	// it alone until ClearQuarantine, HealNode or QuarantineDecay.
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
