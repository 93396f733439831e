package tier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"afraid/internal/core"
)

// Each front slot carries a 16-byte tag in the device's trailer:
//
//	magic "AFT1" (4) | crc32(magic‖extent) (4) | extent (8, BE)
//
// The CRC covers only the tag header, not the slot content, so small
// writes to a resident extent never touch the tag. What makes that
// safe is strict ordering: within one front write, copy 0 is written
// completely (data, then tag when promoting) before copy 1 is touched,
// so at any crash point at most one copy is mid-write and the other is
// whole. Tags are written when a slot is claimed and zeroed before it
// is reused or freed, which is exactly what lets a map-loss recovery
// rebuild residency from the media: a valid tag means "this slot was
// fully claimed by this extent and never released".
const tagMagic = "AFT1"

func encodeTag(ext int64) []byte {
	t := make([]byte, tagSize)
	copy(t, tagMagic)
	binary.BigEndian.PutUint64(t[8:], uint64(ext))
	binary.BigEndian.PutUint32(t[4:], crc32.ChecksumIEEE(append(t[:4:4], t[8:]...)))
	return t
}

// decodeTag returns the claimed extent, or ok=false for anything but a
// self-consistent tag.
func decodeTag(t []byte) (int64, bool) {
	if len(t) != tagSize || string(t[:4]) != tagMagic {
		return 0, false
	}
	if binary.BigEndian.Uint32(t[4:]) != crc32.ChecksumIEEE(append(t[:4:4], t[8:]...)) {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(t[8:])), true
}

// tagOff is the device offset of a slot's tag.
func (s *Store) tagOff(slot int64) int64 { return s.tagBase + (slot%s.slotsPer)*tagSize }

// devsOf returns the device indices of a slot's mirror pair.
func (s *Store) devsOf(slot int64) (int, int) {
	pair := int(slot / s.slotsPer)
	return 2 * pair, 2*pair + 1
}

// markCopyFailed latches a copy's failure and persists the failed-copy
// mask in the map image before the caller acknowledges anything done
// while degraded. The dead copy's media is stale from this moment on —
// the survivor keeps absorbing writes — so recovery must learn the
// asymmetry from persistent state, or a resilver after a later crash
// could pick the dead copy as authoritative and resurrect pre-failure
// data over acknowledged writes only the survivor holds.
func (s *Store) markCopyFailed(dev int) {
	if s.copyFailed[dev].CompareAndSwap(false, true) {
		s.meta.Lock()
		// During recovery the map may not be assembled yet; both
		// recovery branches persist the mask themselves before any
		// post-recovery write can be acknowledged.
		if s.m != nil {
			_ = s.persistMapLocked()
		}
		s.meta.Unlock()
	}
}

// writeDev writes to one front device. A core.ErrDeviceFailed marks
// the copy failed (the mirror carries on); other errors — notably a
// power cut — propagate untouched.
func (s *Store) writeDev(dev int, p []byte, off int64) error {
	if s.copyFailed[dev].Load() {
		return core.ErrDeviceFailed
	}
	_, err := s.front[dev].WriteAt(p, off)
	if errors.Is(err, core.ErrDeviceFailed) {
		s.markCopyFailed(dev)
	}
	return err
}

// readDev reads from one front device with the same classification.
func (s *Store) readDev(dev int, p []byte, off int64) error {
	if s.copyFailed[dev].Load() {
		return core.ErrDeviceFailed
	}
	_, err := s.front[dev].ReadAt(p, off)
	if errors.Is(err, core.ErrDeviceFailed) {
		s.markCopyFailed(dev)
	}
	return err
}

// frontWrite lands one extent-local write on both copies of the slot's
// pair, copy 0 strictly before copy 1. One failed copy degrades the
// pair but the write still succeeds; both failed is an error.
func (s *Store) frontWrite(slot, extOff int64, p []byte) error {
	d0, d1 := s.devsOf(slot)
	off := s.slotOff(slot) + extOff
	err0 := s.writeDev(d0, p, off)
	if err0 != nil && !errors.Is(err0, core.ErrDeviceFailed) {
		return err0 // power cut or other whole-machine event
	}
	err1 := s.writeDev(d1, p, off)
	if err1 != nil && !errors.Is(err1, core.ErrDeviceFailed) {
		return err1
	}
	if err0 != nil && err1 != nil {
		return fmt.Errorf("tier: both copies of front pair failed: %w", err0)
	}
	if err0 != nil || err1 != nil {
		s.st.degradedWrites.Add(1)
	}
	return nil
}

// pickCopy chooses the mirror copy a read goes to: the healthy copy
// with the shorter read queue, ties broken round-robin.
func (s *Store) pickCopy(d0, d1 int) int {
	f0, f1 := s.copyFailed[d0].Load(), s.copyFailed[d1].Load()
	switch {
	case f0 && f1:
		return -1
	case f0:
		return d1
	case f1:
		return d0
	}
	q0, q1 := s.inflight[d0].Load(), s.inflight[d1].Load()
	switch {
	case q0 < q1:
		return d0
	case q1 < q0:
		return d1
	}
	if s.rrTick.Add(1)%2 == 0 {
		return d0
	}
	return d1
}

// frontRead serves one extent-local read from the slot's pair,
// failing over to the mirror if the chosen copy dies mid-read. Both
// copies gone means the dirty data is gone — reported, never silent.
func (s *Store) frontRead(slot, extOff int64, p []byte) error {
	d0, d1 := s.devsOf(slot)
	off := s.slotOff(slot) + extOff
	dev := s.pickCopy(d0, d1)
	if dev < 0 {
		return fmt.Errorf("tier: both copies of front pair %d failed: %w", slot/s.slotsPer, ErrDataLoss)
	}
	s.inflight[dev].Add(1)
	err := s.readDev(dev, p, off)
	s.inflight[dev].Add(-1)
	if err == nil {
		return nil
	}
	if !errors.Is(err, core.ErrDeviceFailed) {
		return err
	}
	// Serve from the mirror.
	other := d0 + d1 - dev
	s.st.mirrorFailovers.Add(1)
	s.inflight[other].Add(1)
	err = s.readDev(other, p, off)
	s.inflight[other].Add(-1)
	if errors.Is(err, core.ErrDeviceFailed) {
		return fmt.Errorf("tier: both copies of front pair %d failed: %w", slot/s.slotsPer, ErrDataLoss)
	}
	return err
}

// writeTags stamps the slot's tag on both copies (copy 0 first).
func (s *Store) writeTags(slot, ext int64) error {
	d0, d1 := s.devsOf(slot)
	t := encodeTag(ext)
	err0 := s.writeDev(d0, t, s.tagOff(slot))
	if err0 != nil && !errors.Is(err0, core.ErrDeviceFailed) {
		return err0
	}
	err1 := s.writeDev(d1, t, s.tagOff(slot))
	if err1 != nil && !errors.Is(err1, core.ErrDeviceFailed) {
		return err1
	}
	if err0 != nil && err1 != nil {
		return fmt.Errorf("tier: both copies of front pair failed: %w", err0)
	}
	return nil
}

// invalidateTags zeroes the slot's tag on both copies; it must precede
// any slot reuse, or a map-loss recovery could resurrect the previous
// occupant's stale content over data the back tier has since rewritten.
func (s *Store) invalidateTags(slot int64) error {
	d0, d1 := s.devsOf(slot)
	zero := make([]byte, tagSize)
	err0 := s.writeDev(d0, zero, s.tagOff(slot))
	if err0 != nil && !errors.Is(err0, core.ErrDeviceFailed) {
		return err0
	}
	err1 := s.writeDev(d1, zero, s.tagOff(slot))
	if err1 != nil && !errors.Is(err1, core.ErrDeviceFailed) {
		return err1
	}
	return nil
}

// readTag reads and decodes one copy's tag for a slot.
func (s *Store) readTag(dev int, slot int64) (int64, bool) {
	t := make([]byte, tagSize)
	if err := s.readDev(dev, t, s.tagOff(slot)); err != nil {
		return 0, false
	}
	return decodeTag(t)
}

// resilver makes the mirror copies of every resident extent identical
// again after a reopen: an in-flight write at the crash can live on
// one copy only, and load-balanced reads must not flicker between two
// versions of an unacknowledged write. Copy 0 is authoritative when
// its tag still matches the map; a slot where neither copy's tag
// matches was mid-eviction (tags are zeroed before the map forgets the
// slot), so the extent's clean content is safe in the back tier and
// the slot is released.
//
// A copy carrying the persisted failed flag is never authoritative,
// valid tag or not: its media froze at the failure while the survivor
// kept taking acknowledged writes. Resilver instead tries to rewrite
// the flagged copy from the survivor; only if every resident slot of
// its pair restores cleanly is the flag cleared and the pair whole
// again.
func (s *Store) resilver() error {
	buf := make([]byte, s.extentSize)
	var dropped []int64
	restored := make([]bool, len(s.front))
	for i := range restored {
		restored[i] = true
	}
	for slot, ext := range s.m.table {
		if ext < 0 {
			continue
		}
		slot := int64(slot)
		d0, d1 := s.devsOf(slot)
		auth := -1
		if !s.copyFailed[d0].Load() {
			if e, ok := s.readTag(d0, slot); ok && e == ext {
				auth = d0
			}
		}
		if auth < 0 && !s.copyFailed[d1].Load() {
			if e, ok := s.readTag(d1, slot); ok && e == ext {
				auth = d1
			}
		}
		if auth < 0 {
			dropped = append(dropped, slot)
			continue
		}
		other := d0 + d1 - auth
		n := s.extentLen(ext)
		if err := s.readDev(auth, buf[:n], s.slotOff(slot)); err != nil {
			if errors.Is(err, core.ErrDeviceFailed) {
				restored[other] = false
				continue // single-copy until it fails too; reads will report
			}
			return err
		}
		// Write the peer directly, bypassing the failed short-circuit: a
		// flagged copy that answers again is exactly what this rewrite
		// brings back into the mirror.
		if _, err := s.front[other].WriteAt(buf[:n], s.slotOff(slot)); err != nil {
			if errors.Is(err, core.ErrDeviceFailed) {
				restored[other] = false
				continue
			}
			return err
		}
		if _, err := s.front[other].WriteAt(encodeTag(ext), s.tagOff(slot)); err != nil {
			if errors.Is(err, core.ErrDeviceFailed) {
				restored[other] = false
				continue
			}
			return err
		}
		s.st.resilvered.Add(1)
	}
	// A dropped slot can still carry a stale valid tag on a flagged
	// copy; zero it so a later map-loss scan cannot resurrect it. A
	// copy whose zeroing fails stays flagged.
	zero := make([]byte, tagSize)
	for _, slot := range dropped {
		d0, d1 := s.devsOf(slot)
		for _, d := range []int{d0, d1} {
			if _, err := s.front[d].WriteAt(zero, s.tagOff(slot)); err != nil {
				restored[d] = false
			}
		}
	}
	changed := len(dropped) > 0
	for i := range s.front {
		if s.copyFailed[i].Load() && restored[i] {
			s.copyFailed[i].Store(false)
			changed = true
		}
	}
	if !changed {
		return nil
	}
	s.meta.Lock()
	defer s.meta.Unlock()
	for _, slot := range dropped {
		s.m.clear(slot)
	}
	return s.persistMapLocked()
}

// scanTags rebuilds an extent map from the on-media slot tags after
// the persisted map is lost. Copy-0 tags are scanned first: an
// eviction in flight at the crash zeroes copy 0 before copy 1, so a
// stale claim can only survive on copy 1 and always loses to the
// current slot's copy-0 claim.
func (s *Store) scanTags() (*extentMap, error) {
	total := int64(s.pairs) * s.slotsPer
	m := newExtentMap(total, s.extents)
	for pass := 0; pass < 2; pass++ {
		for slot := int64(0); slot < total; slot++ {
			if m.table[slot] >= 0 {
				continue
			}
			d0, d1 := s.devsOf(slot)
			dev := d0
			if pass == 1 {
				dev = d1
			}
			ext, ok := s.readTag(dev, slot)
			if !ok || ext < 0 || ext >= s.extents || s.pairOf(ext) != int(slot/s.slotsPer) {
				continue
			}
			if _, dup := m.byExtent[ext]; dup {
				continue
			}
			m.set(slot, ext)
		}
	}
	return m, nil
}
