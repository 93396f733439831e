package tier

import (
	"context"
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
// safe is strict ordering: every mirrored write (mirrorWrite) lands on
// copy 0 completely before copy 1 is touched, so at any crash point at
// most one copy is mid-write and the other is whole; a promote writes
// the data, then the tag. Tags are written when a slot is claimed and
// zeroed before it is reused or freed, which is exactly what lets a
// map-loss recovery rebuild residency from the media: a valid tag means
// "this slot was fully claimed by this extent and never released".
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

// copyIO is the one per-copy step: every front read and write is one
// call of it on one copy, under the op's context. down reports a copy
// that is fail-stopped: this op found it so and latched it here, the
// one place a copy's failure is latched, or it was latched already and
// is not touched again until resilver brings it back.
//
// A latched copy's media is stale from then on, since its mirror keeps
// taking writes, and only the failed-copy mask in the map image tells
// a resilver after a crash not to trust it. So a write that meets a
// latched copy first makes sure the stored image carries its flag, and
// until one is stored fails with the NVRAM store's error: no degraded
// write is acknowledged before the flag is stored. A read is served
// from the mirror either way.
func (s *Store) copyIO(ctx context.Context, dev int, write bool, p []byte, off int64) (down bool, err error) {
	if !s.copyFailed[dev].Load() {
		if write {
			err = core.WriteAt(ctx, s.front[dev], p, off)
		} else {
			err = core.ReadAt(ctx, s.front[dev], p, off)
		}
		if err == nil || !errors.Is(err, core.ErrDeviceFailed) {
			return false, err
		}
		s.copyFailed[dev].Store(true)
	}
	if write && s.storedFailed.Load()&(1<<uint(dev)) == 0 {
		s.meta.Lock()
		err = s.persistMapLocked()
		s.meta.Unlock()
	}
	return true, err
}

// mirrorWrite lands p at device offset off on both copies of the slot's
// pair, copy 0 strictly before copy 1. One copy down degrades the pair
// but the write still succeeds (a data write is counted degraded, a tag
// write is not); both down, or any other error — a power cut, the op's
// context ending, the failed flag not stored — fails it.
func (s *Store) mirrorWrite(ctx context.Context, slot int64, p []byte, off int64) error {
	d0, d1 := s.devsOf(slot)
	down0, err := s.copyIO(ctx, d0, true, p, off)
	if err != nil {
		return err
	}
	down1, err := s.copyIO(ctx, d1, true, p, off)
	if err != nil {
		return err
	}
	if down0 && down1 {
		return fmt.Errorf("tier: both copies of front pair %d failed: %w", slot/s.slotsPer, core.ErrDeviceFailed)
	}
	if (down0 || down1) && off < s.tagBase {
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

// mirrorRead fills p from device offset off of the slot's pair: from
// the copy pickCopy chooses, failing over to its mirror when that copy
// is down or reports the range lost. Both copies failing it means the
// data is gone — reported, never silent.
func (s *Store) mirrorRead(ctx context.Context, slot int64, p []byte, off int64) error {
	d0, d1 := s.devsOf(slot)
	for i, dev := 0, s.pickCopy(d0, d1); i < 2 && dev >= 0; i, dev = i+1, d0+d1-dev {
		if i > 0 {
			s.st.mirrorFailovers.Add(1)
		}
		s.inflight[dev].Add(1)
		down, err := s.copyIO(ctx, dev, false, p, off)
		s.inflight[dev].Add(-1)
		if !down && (err == nil || !errors.Is(err, core.ErrDataLoss)) {
			return err
		}
	}
	return fmt.Errorf("tier: both copies of front pair %d failed: %w", slot/s.slotsPer, ErrDataLoss)
}

// readTag reads and decodes one copy's tag for a slot; a copy that
// cannot serve it has none.
func (s *Store) readTag(dev int, slot int64) (int64, bool) {
	t := make([]byte, tagSize)
	if down, err := s.copyIO(context.Background(), dev, false, t, s.tagOff(slot)); down || err != nil {
		return 0, false
	}
	return decodeTag(t)
}

// resilver makes the mirror copies of every resident extent identical
// again after a reopen: an in-flight write at the crash can live on
// one copy only, and load-balanced reads must not flicker between two
// versions of an unacknowledged write. The authoritative copy is the
// first, copy 0 before copy 1, whose tag still matches the map and
// whose data reads whole; a copy that reports its data lost is passed
// over for its mirror. A slot where neither copy's tag matches was
// mid-eviction (tags are zeroed before the map forgets the slot), so
// the extent's clean content is safe in the back tier and the slot is
// released.
//
// A copy carrying the persisted failed flag is latched, so it is never
// authoritative, valid tag or not: its media froze at the failure while
// the survivor kept taking acknowledged writes. Resilver instead
// rewrites it from the survivor, directly, past its latch; only if
// every resident slot of its pair restores cleanly is the flag cleared
// and the pair whole again.
func (s *Store) resilver() error {
	ctx := context.Background()
	buf := make([]byte, s.extentSize)
	var dropped []int64
	flagged, restored := make([]bool, len(s.front)), make([]bool, len(s.front))
	for i := range s.front {
		flagged[i], restored[i] = s.copyFailed[i].Load(), true
	}
	for slot, ext := range s.m.table {
		if ext < 0 {
			continue
		}
		slot := int64(slot)
		d0, d1 := s.devsOf(slot)
		n := s.extentLen(ext)
		auth, claimed := -1, false
		for _, d := range [2]int{d0, d1} {
			if e, ok := s.readTag(d, slot); !ok || e != ext {
				continue
			}
			claimed = true
			down, err := s.copyIO(ctx, d, false, buf[:n], s.slotOff(slot))
			if !down && err == nil {
				auth = d
				break
			}
			if !down && !errors.Is(err, core.ErrDataLoss) {
				return err
			}
		}
		if !claimed {
			dropped = append(dropped, slot)
			continue
		}
		if auth < 0 {
			// Claimed, but no copy reads whole: the slot stays, and its
			// reads report the loss.
			restored[d0], restored[d1] = false, false
			continue
		}
		other := d0 + d1 - auth
		err := core.WriteAt(ctx, s.front[other], buf[:n], s.slotOff(slot))
		if err == nil {
			err = core.WriteAt(ctx, s.front[other], encodeTag(ext), s.tagOff(slot))
		}
		if err != nil {
			if !errors.Is(err, core.ErrDeviceFailed) {
				return err
			}
			restored[other] = false
			continue // single-copy until it fails too; reads will report
		}
		s.st.resilvered.Add(1)
	}
	// A dropped slot can still carry a stale valid tag on a flagged
	// copy; zero it so a later map-loss scan cannot resurrect it. A
	// copy whose zeroing fails stays flagged.
	zero := make([]byte, tagSize)
	for _, slot := range dropped {
		d0, d1 := s.devsOf(slot)
		for _, d := range [2]int{d0, d1} {
			if core.WriteAt(ctx, s.front[d], zero, s.tagOff(slot)) != nil {
				restored[d] = false
			}
		}
	}
	changed := len(dropped) > 0
	for i := range s.front {
		if flagged[i] && restored[i] {
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
