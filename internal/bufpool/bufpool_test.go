package bufpool

import (
	"testing"

	"afraid/internal/testutil"
)

func TestGetLengthAndClass(t *testing.T) {
	for _, n := range []int{1, 511, 512, 513, 4096, 8192, 8193, 1 << 20} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len = %d", n, len(b))
		}
		if cap(b)&(cap(b)-1) != 0 {
			t.Fatalf("Get(%d): cap %d not a power of two", n, cap(b))
		}
		Put(b)
	}
}

func TestGetZeroIsZeroed(t *testing.T) {
	b := Get(4096)
	for i := range b {
		b[i] = 0xff
	}
	Put(b)
	z := GetZero(4096)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZero: byte %d = %#x", i, v)
		}
	}
	Put(z)
}

func TestGetZeroLen(t *testing.T) {
	if b := Get(0); b != nil {
		t.Fatalf("Get(0) = %v, want nil", b)
	}
	Put(nil) // must not panic
}

func TestOversizeFallsBack(t *testing.T) {
	n := (1 << 20) + 1
	b := Get(n)
	if len(b) != n {
		t.Fatalf("len = %d", len(b))
	}
	Put(b) // dropped, not pooled; must not panic
}

func TestPutForeignBuffer(t *testing.T) {
	Put(make([]byte, 100)) // cap not a pooled class: dropped
	Put(make([]byte, 512, 600))
}

func TestRoundTripReuse(t *testing.T) {
	// Not guaranteed by sync.Pool, but overwhelmingly likely within one
	// goroutine without GC: the same backing array comes back.
	b := Get(8192)
	b[0] = 42
	Put(b)
	c := Get(8192)
	defer Put(c)
	if cap(c) != 8192 {
		t.Fatalf("cap = %d", cap(c))
	}
}

func TestSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector adds allocations; assertion only holds in normal builds")
	}
	// Warm the class, then Get/Put must not allocate.
	Put(Get(8192))
	n := testing.AllocsPerRun(100, func() {
		b := Get(8192)
		Put(b)
	})
	if n > 0 {
		t.Fatalf("Get/Put allocates %v per op in steady state", n)
	}
}
