package fault

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/testutil"
)

func TestTriggersDeterministic(t *testing.T) {
	fire := func(seed int64) []uint64 {
		d := New(core.NewMemDevice(4096), seed)
		d.AddRule(Rule{When: All(Writes(), Prob(0.3)), Do: Transient(nil)})
		var hits []uint64
		buf := make([]byte, 16)
		for i := 0; i < 100; i++ {
			if _, err := d.WriteAt(buf, 0); err != nil {
				hits = append(hits, uint64(i))
			}
		}
		return hits
	}
	a, b := fire(42), fire(42)
	if len(a) == 0 {
		t.Fatal("Prob(0.3) never fired in 100 writes")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: %v vs %v", a, b)
		}
	}
}

func TestAfterEveryInRange(t *testing.T) {
	d := New(core.NewMemDevice(4096), 1)
	d.AddRule(Rule{When: All(Writes(), After(3)), Do: Transient(nil), Max: 1})
	buf := make([]byte, 8)
	for i := 1; i <= 3; i++ {
		if _, err := d.WriteAt(buf, 0); err != nil {
			t.Fatalf("write %d failed before After(3): %v", i, err)
		}
	}
	if _, err := d.WriteAt(buf, 0); err == nil {
		t.Fatal("4th write should trip After(3)")
	}
	if _, err := d.WriteAt(buf, 0); err != nil {
		t.Fatalf("Max:1 rule fired twice: %v", err)
	}

	d2 := New(core.NewMemDevice(4096), 1)
	d2.AddRule(Rule{When: InRange(100, 50), Do: Transient(nil)})
	if _, err := d2.WriteAt(buf, 0); err != nil {
		t.Fatalf("write outside range: %v", err)
	}
	if _, err := d2.WriteAt(buf, 145); err == nil {
		t.Fatal("write overlapping [100,150) should fail")
	}
	if _, err := d2.ReadAt(buf, 120); err == nil {
		t.Fatal("read inside [100,150) should fail")
	}
}

func TestTransientWrapsDeviceFailed(t *testing.T) {
	if !errors.Is(ErrInjected, core.ErrDeviceFailed) {
		t.Fatal("ErrInjected must wrap core.ErrDeviceFailed")
	}
	if errors.Is(ErrPowerCut, core.ErrDeviceFailed) {
		t.Fatal("ErrPowerCut must NOT wrap core.ErrDeviceFailed (a power cut is not a disk failure)")
	}
	if errors.Is(ErrTorn, core.ErrDeviceFailed) {
		t.Fatal("ErrTorn must NOT wrap core.ErrDeviceFailed")
	}
}

func TestFailStopAndHeal(t *testing.T) {
	d := New(core.NewMemDevice(4096), 7)
	d.AddRule(Rule{When: After(2), Do: FailStop(), Max: 1})
	buf := make([]byte, 8)
	d.WriteAt(buf, 0)
	d.WriteAt(buf, 0)
	if _, err := d.WriteAt(buf, 0); !errors.Is(err, core.ErrDeviceFailed) {
		t.Fatalf("expected fail-stop, got %v", err)
	}
	if !d.Failed() {
		t.Fatal("device should report failed")
	}
	if _, err := d.ReadAt(buf, 0); !errors.Is(err, core.ErrDeviceFailed) {
		t.Fatalf("failed device must reject reads, got %v", err)
	}
	d.Heal()
	if _, err := d.ReadAt(buf, 0); err != nil {
		t.Fatalf("healed device errored: %v", err)
	}
}

// A fired Delay is a slow member, not a stuck device: an op whose context
// ends inside the delay fails with the context's error and leaves the
// backing device as it was, and an op elsewhere on the device does not
// wait behind another op's sleep.
func TestDelayHonoursContextAndHoldsNoLock(t *testing.T) {
	const slow = 5 * time.Second
	d := New(core.NewMemDevice(4096), 1, Rule{When: InRange(0, 512), Do: Delay(slow)})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := d.WriteAtContext(ctx, bytes.Repeat([]byte{0xAB}, 512), 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("write delayed past its deadline = %v, want context.DeadlineExceeded", err)
	}
	got := make([]byte, 512)
	if _, err := d.Backing().ReadAt(got, 0); err != nil || !bytes.Equal(got, make([]byte, 512)) {
		t.Fatalf("the cut-short write reached the backing device (err %v)", err)
	}

	held, release := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := d.ReadAtContext(held, make([]byte, 512), 0)
		done <- err
	}()
	t0 := time.Now()
	testutil.Eventually(t, "the read to enter its delay", func() bool { return d.Stats().Delays == 2 })
	if _, err := d.WriteAt(make([]byte, 512), 1024); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > slow/2 {
		t.Fatalf("a write outside the delayed range took %v: it waited behind the delayed read", took)
	}
	release()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("delayed read cancelled = %v, want context.Canceled", err)
	}
}

func TestTornWritePersistsPrefixOnly(t *testing.T) {
	mem := core.NewMemDevice(4096)
	d := New(mem, 3)
	d.AddRule(Rule{When: Every(1), Do: TornWrite(), Max: 1})
	p := bytes.Repeat([]byte{0xAA}, 256)
	if _, err := d.WriteAt(p, 0); !errors.Is(err, ErrTorn) {
		t.Fatalf("expected ErrTorn, got %v", err)
	}
	got := make([]byte, 256)
	if _, err := mem.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	n := 0
	for n < 256 && got[n] == 0xAA {
		n++
	}
	if n == 256 {
		t.Fatal("torn write persisted the full buffer")
	}
	for _, b := range got[n:] {
		if b != 0 {
			t.Fatal("torn write left non-prefix bytes")
		}
	}
}

// TestVectoredWriteIsOneOp: a vectored write is one op to the rules, and
// the damage a power cut leaves covers what it landed, across its buffers:
// every byte of the torn prefix until a later write covers it, and every
// checksum slot of a slot run the cut rejected.
func TestVectoredWriteIsOneOp(t *testing.T) {
	mem := core.NewMemDevice(1 << 16)
	line := NewPowerLine()
	d := New(mem, 2).OnLine(line).SetChecksumRegion(1 << 15) // the cut lands 2530 bytes
	unit := bytes.Repeat([]byte{0xAA}, 1024)
	if _, err := d.WriteVecAtContext(context.Background(), [][]byte{unit, unit, unit}, 0); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Writes != 1 {
		t.Fatalf("a vectored write of three buffers counted %d writes, want 1", st.Writes)
	}
	line.CutAfter(1)
	if _, err := d.WriteVecAtContext(context.Background(), [][]byte{unit, unit, unit, unit}, 4096); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("write under the blown fuse: %v", err)
	}
	landed := int64(0)
	for got := make([]byte, 1); landed < 4096; landed++ {
		if mem.ReadAt(got, 4096+landed); got[0] != 0xAA {
			break
		}
	}
	for u := int64(0); u < 4; u++ {
		if want := u*1024 < landed; d.Damaged(4096+u*1024, 1024) != want {
			t.Errorf("buffer %d of the torn write: damaged %v, want %v (%d bytes landed)", u, !want, want, landed)
		}
	}
	if _, err := d.WriteVecAtContext(context.Background(), [][]byte{make([]byte, 8), make([]byte, 8)}, 1<<15); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("slot run on a cut line: %v", err)
	}
	if !d.Damaged(1<<15+8, 8) {
		t.Error("the second slot of a rejected slot run is not damaged")
	}
	line.Restore()
	if _, err := d.WriteAt(unit, 4096); err != nil {
		t.Fatal(err)
	}
	if d.Damaged(4096, 1024) || (landed > 1024) != d.Damaged(5120, 1024) {
		t.Error("a write over the first buffer must cover its damage, and only its damage")
	}
}

func TestFlipBitSilentCorruption(t *testing.T) {
	mem := core.NewMemDevice(4096)
	d := New(mem, 9)
	d.AddRule(Rule{Do: FlipBit(), Max: 1})
	p := bytes.Repeat([]byte{0x55}, 64)
	if _, err := d.WriteAt(p, 0); err != nil {
		t.Fatalf("FlipBit must not error: %v", err)
	}
	got := make([]byte, 64)
	mem.ReadAt(got, 0)
	diff := 0
	for i := range got {
		diff += popcount(got[i] ^ p[i])
	}
	if diff != 1 {
		t.Fatalf("expected exactly 1 flipped bit, got %d", diff)
	}
	if d.Stats().FlipBits != 1 {
		t.Fatalf("stats: %+v", d.Stats())
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestPowerLineFuse(t *testing.T) {
	mem := core.NewMemDevice(4096)
	line := NewPowerLine()
	d := New(mem, 11).OnLine(line)
	line.CutAfter(3)
	p := bytes.Repeat([]byte{0xFF}, 128)
	for i := 0; i < 2; i++ {
		if _, err := d.WriteAt(p, int64(i)*128); err != nil {
			t.Fatalf("write %d before fuse: %v", i, err)
		}
	}
	if _, err := d.WriteAt(p, 256); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("3rd write should blow the fuse, got %v", err)
	}
	if !line.IsCut() {
		t.Fatal("line should be cut")
	}
	// The victim write landed at most a strict prefix.
	got := make([]byte, 128)
	mem.ReadAt(got, 256)
	n := 0
	for n < 128 && got[n] == 0xFF {
		n++
	}
	if n == 128 {
		t.Fatal("fused write persisted fully")
	}
	// Reads and writes reject until restore.
	if _, err := d.ReadAt(got, 0); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("read on cut line: %v", err)
	}
	line.Restore()
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatalf("read after restore: %v", err)
	}
	if got[0] != 0xFF {
		t.Fatal("pre-cut write lost")
	}
}

// TestStoreAbsorbsInjectedTransient is the satellite-1 regression: a
// transient error wrapping core.ErrDeviceFailed (not equal to it) must
// move the store to degraded mode via errors.Is, and the interrupted
// write must be retried and acknowledged.
func TestStoreAbsorbsInjectedTransient(t *testing.T) {
	backings := make([]core.BlockDevice, 4)
	for i := range backings {
		backings[i] = core.NewMemDevice(16 << 10)
	}
	devs := Wrap(backings, 21)
	devs[2].AddRule(Rule{When: Writes(), Do: Transient(nil), Max: 1})
	st, err := core.Open(Devices(devs), &core.MemNVRAM{}, core.Options{Mode: core.Raid5, StripeUnit: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	p := bytes.Repeat([]byte{0x7}, 4096)
	if _, err := st.WriteAt(p, 0); err != nil {
		t.Fatalf("write over transient fault should be absorbed and retried: %v", err)
	}
	dead := st.DeadDisks()
	if len(dead) != 1 || dead[0] != 2 {
		t.Fatalf("store should have absorbed disk 2, dead=%v", dead)
	}
	got := make([]byte, 4096)
	if _, err := st.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("acknowledged write diverged after degraded retry")
	}
}
