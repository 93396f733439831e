package nvram

import (
	"testing"
	"testing/quick"
)

func TestMarkUnmarkCount(t *testing.T) {
	b := NewBitmap(1000)
	if !b.Mark(5) {
		t.Fatal("first mark should change state")
	}
	if b.Mark(5) {
		t.Fatal("re-mark should be a no-op (paper: re-marking does nothing)")
	}
	if b.Count() != 1 {
		t.Fatalf("count = %d", b.Count())
	}
	if !b.IsMarked(5) || b.IsMarked(6) {
		t.Fatal("membership wrong")
	}
	if !b.Unmark(5) {
		t.Fatal("unmark should change state")
	}
	if b.Unmark(5) {
		t.Fatal("double unmark should be a no-op")
	}
	if b.Count() != 0 {
		t.Fatalf("count = %d after unmark", b.Count())
	}
}

func TestNextWrapsAround(t *testing.T) {
	b := NewBitmap(256)
	b.Mark(10)
	b.Mark(200)
	if s, ok := b.Next(0); !ok || s != 10 {
		t.Fatalf("Next(0) = %d,%v", s, ok)
	}
	if s, ok := b.Next(11); !ok || s != 200 {
		t.Fatalf("Next(11) = %d,%v", s, ok)
	}
	if s, ok := b.Next(201); !ok || s != 10 {
		t.Fatalf("Next(201) should wrap to 10, got %d,%v", s, ok)
	}
	b.Unmark(10)
	b.Unmark(200)
	if _, ok := b.Next(0); ok {
		t.Fatal("Next on empty map returned a stripe")
	}
}

func TestNextWordBoundaries(t *testing.T) {
	b := NewBitmap(300)
	for _, s := range []int64{63, 64, 127, 128, 255, 299} {
		b.Mark(s)
	}
	got := b.Marked()
	want := []int64{63, 64, 127, 128, 255, 299}
	if len(got) != len(want) {
		t.Fatalf("marked = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("marked = %v, want %v", got, want)
		}
	}
}

func TestBitmapQuickConsistency(t *testing.T) {
	prop := func(ops []int16) bool {
		const n = 128
		b := NewBitmap(n)
		ref := map[int64]bool{}
		for _, op := range ops {
			s := int64(op) % n
			if s < 0 {
				s += n
			}
			if op%2 == 0 {
				b.Mark(s)
				ref[s] = true
			} else {
				b.Unmark(s)
				delete(ref, s)
			}
		}
		if b.Count() != int64(len(ref)) {
			return false
		}
		for s := int64(0); s < n; s++ {
			if b.IsMarked(s) != ref[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	prop := func(stripesRaw uint16, marks []uint16) bool {
		stripes := int64(stripesRaw%500) + 1
		b := NewBitmap(stripes)
		for _, m := range marks {
			b.Mark(int64(m) % stripes)
		}
		img := b.Serialize()
		got, err := Deserialize(img)
		if err != nil {
			return false
		}
		if got.Count() != b.Count() || got.Stripes() != b.Stripes() {
			return false
		}
		for s := int64(0); s < stripes; s++ {
			if got.IsMarked(s) != b.IsMarked(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeserializeRejectsGarbage(t *testing.T) {
	if _, err := Deserialize(nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if _, err := Deserialize(make([]byte, 4)); err == nil {
		t.Fatal("short image accepted")
	}
	b := NewBitmap(10)
	img := b.Serialize()
	if _, err := Deserialize(img[:len(img)-1]); err == nil {
		t.Fatal("truncated image accepted")
	}
	// Set a bit beyond stripe 10.
	img2 := b.Serialize()
	img2[8+1] = 0x80 // bit 15
	if _, err := Deserialize(img2); err == nil {
		t.Fatal("image with out-of-range bits accepted")
	}
}

func TestSizeBytesMatchesPaperScale(t *testing.T) {
	// Paper: ~3 KB of marking memory per 1 GB stored, for a 5-wide
	// array with 8 KB stripe units. 1 GB data / (4 data disks * 8 KB)
	// stripes = 32768 stripes -> 4 KB of bitmap (1 bit each).
	stripes := int64(1<<30) / (4 * 8 << 10)
	b := NewBitmap(stripes)
	if b.SizeBytes() != stripes/8 {
		t.Fatalf("SizeBytes = %d, want %d", b.SizeBytes(), stripes/8)
	}
	if b.SizeBytes() > 8<<10 {
		t.Fatalf("marking memory %d bytes per GB; paper promises a trivial cost", b.SizeBytes())
	}
}

func TestMarkedOrderedAscending(t *testing.T) {
	b := NewBitmap(1024)
	for _, s := range []int64{700, 3, 512, 64, 65} {
		b.Mark(s)
	}
	got := b.Marked()
	want := []int64{3, 64, 65, 512, 700}
	if len(got) != len(want) {
		t.Fatalf("marked = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("marked = %v, want %v", got, want)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := NewBitmap(10)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range mark did not panic")
		}
	}()
	b.Mark(10)
}
