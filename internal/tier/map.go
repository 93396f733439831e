package tier

import (
	"encoding/binary"
	"fmt"

	"afraid/internal/nvram"
)

// The extent map is the tier's marking memory: it must know which
// extents live in the front tier before any promote is acknowledged,
// or a crash would silently forget dirty front-tier data. The
// persisted image is
//
//	magic "AFTRMAP1" (8)
//	extent size      (8, LE)
//	slot count       (8, LE)
//	failed-copy mask (8, LE: bit i set = front device i failed)
//	slot table       (slots × 8, LE: extent+1, 0 = free)
//	residency bitmap (nvram.Bitmap.Serialize over extents)
//
// The bitmap is derivable from the slot table; it is stored anyway and
// cross-checked at load, so a torn or bit-rotted image fails loudly
// and triggers the tag-scan recovery instead of deserializing into a
// plausible-but-wrong placement.
//
// The failed-copy mask records mirror copies that fail-stopped while
// the array ran on. A copy's flag is stored before any degraded write
// to its pair is acknowledged (copyIO): a dead copy's media is stale —
// the survivor kept absorbing writes — and recovery must never pick it
// as the authoritative side of a resilver.
const mapMagic = "AFTRMAP1"

// extentMap is the in-memory form: a slot table plus the inverse
// index. Callers hold Store.meta.
type extentMap struct {
	table    []int64         // per global slot: extent, or -1 free
	byExtent map[int64]int64 // extent -> global slot
	resident *nvram.Bitmap   // over extents, mirrors byExtent
}

func newExtentMap(slots, extents int64) *extentMap {
	m := &extentMap{
		table:    make([]int64, slots),
		byExtent: make(map[int64]int64),
		resident: nvram.NewBitmap(extents),
	}
	for i := range m.table {
		m.table[i] = -1
	}
	return m
}

// set binds a slot to an extent.
func (m *extentMap) set(slot, ext int64) {
	m.table[slot] = ext
	m.byExtent[ext] = slot
	m.resident.Mark(ext)
}

// clear frees a slot.
func (m *extentMap) clear(slot int64) {
	if ext := m.table[slot]; ext >= 0 {
		delete(m.byExtent, ext)
		m.resident.Unmark(ext)
	}
	m.table[slot] = -1
}

// freeSlot returns a free slot of the pair, or -1.
func (m *extentMap) freeSlot(pair int, slotsPer int64) int64 {
	base := int64(pair) * slotsPer
	for s := base; s < base+slotsPer; s++ {
		if m.table[s] < 0 {
			return s
		}
	}
	return -1
}

// serialize renders the persisted image.
func (m *extentMap) serialize(extentSize int64, failedMask uint64) []byte {
	out := make([]byte, 0, 32+len(m.table)*8+int(m.resident.SizeBytes())+8)
	out = append(out, mapMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(extentSize))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(m.table)))
	out = binary.LittleEndian.AppendUint64(out, failedMask)
	for slot, ext := range m.table {
		// Skip in-flight promote reservations (table set, byExtent not
		// yet): their data has not landed, so the persisted image must
		// keep calling the slot free.
		if sl, ok := m.byExtent[ext]; ext >= 0 && ok && sl == int64(slot) {
			out = binary.LittleEndian.AppendUint64(out, uint64(ext+1))
		} else {
			out = binary.LittleEndian.AppendUint64(out, 0)
		}
	}
	return append(out, m.resident.Serialize()...)
}

// deserializeMap parses a persisted image, validating magic, geometry
// and the table/bitmap cross-check. Any failure means the map cannot
// be trusted; the caller falls back to tag-scan recovery.
func deserializeMap(img []byte, extentSize, slots, extents int64) (*extentMap, uint64, error) {
	if len(img) == 0 {
		// First boot: an empty image is a valid empty map, not loss.
		return newExtentMap(slots, extents), 0, nil
	}
	if len(img) < 32 || string(img[:8]) != mapMagic {
		return nil, 0, fmt.Errorf("tier: extent map image lacks magic %q", mapMagic)
	}
	if got := int64(binary.LittleEndian.Uint64(img[8:])); got != extentSize {
		return nil, 0, fmt.Errorf("tier: extent map extent size %d, want %d", got, extentSize)
	}
	if got := int64(binary.LittleEndian.Uint64(img[16:])); got != slots {
		return nil, 0, fmt.Errorf("tier: extent map has %d slots, want %d", got, slots)
	}
	failedMask := binary.LittleEndian.Uint64(img[24:])
	need := 32 + int(slots)*8
	if len(img) < need {
		return nil, 0, fmt.Errorf("tier: extent map image truncated at %d bytes", len(img))
	}
	m := newExtentMap(slots, extents)
	for s := int64(0); s < slots; s++ {
		v := binary.LittleEndian.Uint64(img[32+s*8:])
		if v == 0 {
			continue
		}
		ext := int64(v) - 1
		if ext < 0 || ext >= extents {
			return nil, 0, fmt.Errorf("tier: slot %d maps extent %d outside %d", s, ext, extents)
		}
		if _, dup := m.byExtent[ext]; dup {
			return nil, 0, fmt.Errorf("tier: extent %d resident in two slots", ext)
		}
		m.set(s, ext)
	}
	bm, err := nvram.Deserialize(img[need:])
	if err != nil {
		return nil, 0, fmt.Errorf("tier: extent map bitmap: %w", err)
	}
	if bm.Stripes() != extents || bm.Count() != int64(len(m.byExtent)) {
		return nil, 0, fmt.Errorf("tier: extent map bitmap disagrees with slot table")
	}
	for ext := range m.byExtent {
		if !bm.IsMarked(ext) {
			return nil, 0, fmt.Errorf("tier: extent %d in slot table but not bitmap", ext)
		}
	}
	return m, failedMask, nil
}

// persistMapLocked writes the map through the NVRAM interface. Callers
// hold s.meta. Promotes and evictions persist before acknowledging;
// the dirty bits themselves are not persisted — recovery marks every
// resident extent dirty instead, which is always safe.
func (s *Store) persistMapLocked() error {
	var mask uint64
	for i := range s.copyFailed {
		if s.copyFailed[i].Load() {
			mask |= 1 << uint(i)
		}
	}
	if err := s.nv.Store(s.m.serialize(s.extentSize, mask)); err != nil {
		return err
	}
	s.storedFailed.Store(mask)
	return nil
}
