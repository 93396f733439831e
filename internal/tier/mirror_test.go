package tier

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/fault"
)

// newFaultRig is newRig over fault-injected front copies, with the
// extent map in a switchNVRAM.
func newFaultRig(t *testing.T) (*testRig, []*fault.Device, *switchNVRAM) {
	t.Helper()
	var copies []*fault.Device
	nv := &switchNVRAM{}
	r := openRig(t, Options{DisableMigrator: true}, 8, func(d core.BlockDevice) core.BlockDevice {
		f := fault.New(d, int64(len(copies)))
		copies = append(copies, f)
		return f
	}, nv)
	return r, copies, nv
}

// switchNVRAM is a MemNVRAM whose Store can be made to fail.
type switchNVRAM struct {
	core.MemNVRAM
	down atomic.Bool
}

var errNVRAMDown = errors.New("tier test: NVRAM store failed")

func (n *switchNVRAM) Store(img []byte) error {
	if n.down.Load() {
		return errNVRAMDown
	}
	return n.MemNVRAM.Store(img)
}

// TestFrontIOHonoursItsDeadline: a resident read and a resident write
// on two stalled copies return the op's context error at its deadline,
// not when the copies answer.
func TestFrontIOHonoursItsDeadline(t *testing.T) {
	r, copies, _ := newFaultRig(t)
	defer r.st.Close()
	data := bytes.Repeat([]byte{0x5A}, 4096)
	if _, err := r.st.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range copies {
		c.AddRule(fault.Rule{Do: fault.Delay(time.Second)})
	}
	for _, op := range []struct {
		name string
		do   func(context.Context) (int, error)
	}{
		{"read", func(ctx context.Context) (int, error) { return r.st.ReadContext(ctx, make([]byte, 4096), 0) }},
		{"write", func(ctx context.Context) (int, error) { return r.st.WriteContext(ctx, data, 0) }},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		_, err := op.do(ctx)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("resident %s on stalled copies: got %v, want context.DeadlineExceeded", op.name, err)
		}
		if took >= 150*time.Millisecond {
			t.Errorf("resident %s on stalled copies took %v against a 50ms deadline", op.name, took)
		}
	}
}

// TestFrontCopyLossServedFromMirror: one copy reports a resident range
// lost. Every read of it is served whole from the mirror, and Flush
// demotes the bytes to the back store.
func TestFrontCopyLossServedFromMirror(t *testing.T) {
	r, copies, _ := newFaultRig(t)
	defer r.st.Close()
	data := make([]byte, r.extentSz)
	rand.New(rand.NewSource(38)).Read(data)
	if _, err := r.st.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	copies[0].AddRule(fault.Rule{
		When: fault.All(fault.Reads(), fault.InRange(0, r.extentSz)),
		Do:   fault.Transient(fmt.Errorf("front slot lost: %w", core.ErrDataLoss)),
	})
	for i := 0; i < 8; i++ {
		got := make([]byte, len(data))
		if _, err := r.st.ReadAt(got, 0); err != nil {
			t.Fatalf("read %d of 8: %v", i+1, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d of 8 returned wrong bytes", i+1)
		}
	}
	if err := r.st.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := r.back.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("back store does not hold the demoted bytes")
	}
	if n := r.st.StatMap()["tier.mirror_failovers"]; n == 0 {
		t.Fatal("tier.mirror_failovers = 0: no read went to the lossy copy")
	}
}

// TestDegradedWriteWaitsForFailedFlag: copy 0 fail-stops while the map's
// NVRAM cannot store. The write must not be acknowledged, because a
// crash in which copy 0 answers again would let resilver trust its
// stale bytes. Once the flag is stored, degraded writes are
// acknowledged, and survive that same crash.
func TestDegradedWriteWaitsForFailedFlag(t *testing.T) {
	r, copies, nv := newFaultRig(t)
	want := bytes.Repeat([]byte{0xA1}, 4096)
	if _, err := r.st.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	crash := func() {
		t.Helper()
		copies[0].Heal() // the copy answers again after the crash
		r.reopen(t, Options{DisableMigrator: true})
		got := make([]byte, len(want))
		if _, err := r.st.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("after the crash a read returned %#x..., want the last acknowledged %#x...", got[0], want[0])
		}
	}

	nv.down.Store(true)
	copies[0].Fail()
	next := bytes.Repeat([]byte{0xB2}, 4096)
	if _, err := r.st.WriteAt(next, 0); !errors.Is(err, errNVRAMDown) {
		t.Errorf("degraded write before the flag is stored: got %v, want the NVRAM's error", err)
		if err == nil {
			want = next // acknowledged: the crash below must keep it
		}
	}
	nv.down.Store(false)
	crash()

	copies[0].Fail()
	want = bytes.Repeat([]byte{0xC3}, 4096)
	if _, err := r.st.WriteAt(want, 0); err != nil {
		t.Fatalf("degraded write with the NVRAM up: %v", err)
	}
	if r.st.TierStats().DegradedWrites == 0 {
		t.Fatal("degraded write not counted")
	}
	crash()
	r.st.Close()
}
