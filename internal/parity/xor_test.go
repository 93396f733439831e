package parity

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestXORInvolution(t *testing.T) {
	prop := func(a, b []byte) bool {
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		orig := append([]byte(nil), a...)
		XORInto(a, b)
		XORInto(a, b)
		return bytes.Equal(a, orig)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXORMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	XORInto(make([]byte, 3), make([]byte, 4))
}

func TestComputeAndCheck(t *testing.T) {
	blocks := [][]byte{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
	}
	p := make([]byte, 4)
	Compute(p, blocks...)
	want := []byte{1 ^ 5 ^ 9, 2 ^ 6 ^ 10, 3 ^ 7 ^ 11, 4 ^ 8 ^ 12}
	if !bytes.Equal(p, want) {
		t.Fatalf("parity = %v, want %v", p, want)
	}
	if !Check(p, blocks...) {
		t.Fatal("Check rejected correct parity")
	}
	p[0] ^= 0xff
	if Check(p, blocks...) {
		t.Fatal("Check accepted corrupted parity")
	}
}

func TestReconstructAnySingleBlock(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		width := int(n%6) + 2 // 2..7 data blocks
		blockLen := 64
		blocks := make([][]byte, width)
		s := uint64(seed)
		next := func() byte {
			s = s*6364136223846793005 + 1442695040888963407
			return byte(s >> 56)
		}
		for i := range blocks {
			blocks[i] = make([]byte, blockLen)
			for j := range blocks[i] {
				blocks[i][j] = next()
			}
		}
		p := make([]byte, blockLen)
		Compute(p, blocks...)
		for lost := 0; lost < width; lost++ {
			survivors := make([][]byte, 0, width-1)
			for i, b := range blocks {
				if i != lost {
					survivors = append(survivors, b)
				}
			}
			got := make([]byte, blockLen)
			Reconstruct(got, p, survivors...)
			if !bytes.Equal(got, blocks[lost]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateEquivalentToRecompute(t *testing.T) {
	prop := func(a, b, c, newB []byte) bool {
		n := 32
		pad := func(x []byte) []byte {
			out := make([]byte, n)
			copy(out, x)
			return out
		}
		a, b, c, newB = pad(a), pad(b), pad(c), pad(newB)
		p := make([]byte, n)
		Compute(p, a, b, c)
		// read-modify-write path
		Update(p, b, newB)
		// recompute path
		p2 := make([]byte, n)
		Compute(p2, a, newB, c)
		return bytes.Equal(p, p2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeNoBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no blocks did not panic")
		}
	}()
	Compute(make([]byte, 4))
}
