package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// FaultNode wraps a Node with node-level fault injection, the cluster
// analogue of fault.Device: crash (fail-stop), slow node, a deterministic
// crash-after-N-ops trigger for reproducible mid-write failures, and a
// flap cycle. Tests wrap members in one to audit the volume's loss
// contract the way afraidchaos audits a single array.
type FaultNode struct {
	inner Node

	mu         sync.Mutex
	crashed    bool
	slow       time.Duration
	crashAfter int64 // fail-stop before op N+1; <0 disabled
	flapUp     int64 // SetFlap: ops served per cycle (0 = flapping off)
	flapDown   int64 // SetFlap: ops refused per cycle
	flapPos    int64 // position inside the current flap cycle
}

// NewFaultNode wraps inner with no fault armed.
func NewFaultNode(inner Node) *FaultNode {
	return &FaultNode{inner: inner, crashAfter: -1}
}

// Crash fail-stops the node: every subsequent operation fails as
// node-down until Restore.
func (f *FaultNode) Crash() {
	f.mu.Lock()
	f.crashed = true
	f.mu.Unlock()
}

// Restore clears the crash, slowness, and any pending triggers. (The
// volume still considers the node down until healed.)
func (f *FaultNode) Restore() {
	f.mu.Lock()
	f.crashed = false
	f.slow = 0
	f.crashAfter = -1
	f.flapUp, f.flapDown, f.flapPos = 0, 0, 0
	f.mu.Unlock()
}

// SetSlow adds a fixed delay to every operation — the brownout node a
// NodeTimeout must eventually cut loose.
func (f *FaultNode) SetSlow(d time.Duration) {
	f.mu.Lock()
	f.slow = d
	f.mu.Unlock()
}

// CrashAfterOps arms a deterministic fail-stop: the next n operations
// succeed, then the node crashes. n=0 crashes on the next operation.
func (f *FaultNode) CrashAfterOps(n int64) {
	f.mu.Lock()
	f.crashAfter = n
	f.mu.Unlock()
}

// SetFlap makes the node flap deterministically: upOps operations
// succeed, then downOps fail as node-down, then it "restarts" and the
// cycle repeats — the crash-after-N-ops, auto-restart machine a flap
// damper must fence off. Unlike Crash the node recovers by itself, so
// without damping the volume demotes, redials, and heals it forever.
// SetFlap(0, 0) turns flapping off.
func (f *FaultNode) SetFlap(upOps, downOps int64) {
	f.mu.Lock()
	f.flapUp, f.flapDown = upOps, downOps
	f.flapPos = 0
	f.mu.Unlock()
}

// gate applies the injection state to one operation.
func (f *FaultNode) gate(ctx context.Context) error {
	f.mu.Lock()
	if f.crashAfter >= 0 {
		if f.crashAfter == 0 {
			f.crashed = true
		}
		f.crashAfter--
	}
	dead := f.crashed
	if !dead && f.flapUp > 0 && f.flapDown > 0 {
		if f.flapPos >= f.flapUp {
			dead = true
		}
		f.flapPos++
		if f.flapPos >= f.flapUp+f.flapDown {
			f.flapPos = 0 // restart: the node comes back by itself
		}
	}
	slow := f.slow
	f.mu.Unlock()
	if dead {
		return fmt.Errorf("%w: injected fault", ErrNodeDown)
	}
	if slow > 0 {
		t := time.NewTimer(slow)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return nil
}

// ReadAtContext implements Node.
func (f *FaultNode) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	if err := f.gate(ctx); err != nil {
		return 0, err
	}
	return f.inner.ReadAtContext(ctx, p, off)
}

// WriteAtContext implements Node.
func (f *FaultNode) WriteAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	if err := f.gate(ctx); err != nil {
		return 0, err
	}
	return f.inner.WriteAtContext(ctx, p, off)
}

// Flush implements Node.
func (f *FaultNode) Flush(ctx context.Context) error {
	if err := f.gate(ctx); err != nil {
		return err
	}
	return f.inner.Flush(ctx)
}

// Ping implements Node.
func (f *FaultNode) Ping(ctx context.Context) error {
	if err := f.gate(ctx); err != nil {
		return err
	}
	return f.inner.Ping(ctx)
}

// Capacity implements Node. It is volume-open metadata, not I/O, and is
// not gated.
func (f *FaultNode) Capacity() int64 { return f.inner.Capacity() }

// Close implements Node.
func (f *FaultNode) Close() error { return f.inner.Close() }
