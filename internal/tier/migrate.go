package tier

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"afraid/internal/bufpool"
	"afraid/internal/core"
)

// promote installs an extent in the front tier and applies the write.
// The caller holds the extent's lock. Crash-safety hangs on the order:
// compose the full image, zero any previous occupant's tags, write the
// data, then the tag (each mirrored, copy 0 before copy 1), and only
// then persist the map and acknowledge. Before the map persist the back
// tier is still authoritative and the write simply never happened;
// after it the front holds a complete image on at least one whole copy.
func (s *Store) promote(ctx context.Context, ext, extOff int64, p []byte) error {
	n := s.extentLen(ext)
	buf := bufpool.Get(int(s.extentSize))
	defer bufpool.Put(buf)
	if extOff > 0 || int64(len(p)) < n {
		if _, err := s.back.ReadContext(ctx, buf[:n], ext*s.extentSize); err != nil {
			if errors.Is(err, core.ErrDataLoss) {
				// The surrounding bytes are already reported lost; let
				// the back tier absorb the partial write directly.
				s.st.writeArounds.Add(1)
				_, werr := s.back.WriteContext(ctx, p, ext*s.extentSize+extOff)
				return werr
			}
			return err
		}
	}
	copy(buf[extOff:], p)

	start := s.opts.now()
	slot, err := s.claimSlot(ctx, ext)
	if err != nil || slot < 0 {
		// No slot to be had: not a failure, just a cold front. Write
		// around and let the migrator catch up.
		s.st.writeArounds.Add(1)
		_, werr := s.back.WriteContext(ctx, p, ext*s.extentSize+extOff)
		if err == nil {
			err = werr
		} else if werr != nil {
			err = fmt.Errorf("%w (and write-around failed: %v)", err, werr)
		}
		return err
	}
	err = s.mirrorWrite(ctx, slot, buf[:n], s.slotOff(slot))
	if err == nil {
		err = s.mirrorWrite(ctx, slot, encodeTag(ext), s.tagOff(slot))
	}
	if err != nil {
		s.releaseSlot(slot)
		return err
	}
	s.meta.Lock()
	s.m.set(slot, ext)
	s.dirty.Mark(slot)
	s.dirtyBytes += n
	s.useClock++
	s.lastUse[slot] = s.useClock
	err = s.persistMapLocked()
	s.meta.Unlock()
	if err != nil {
		return err
	}
	s.st.promotes.Add(1)
	s.st.promotedBytes.Add(n)
	s.ob.promote.Observe(s.opts.now().Sub(start))
	return nil
}

// claimSlot finds a free slot on the extent's pair, evicting the
// least-recently-used clean extent if the pair is full. It returns
// slot -1 (no error) when nothing is evictable — every slot dirty
// means the migrator is the bottleneck, and the right move is to
// write around, not to block the client behind a demotion.
//
// Eviction locks the victim's extent with TryLock: the caller already
// holds the promoting extent's lock, and two promotes evicting across
// each other could otherwise deadlock on the 64-way pool.
func (s *Store) claimSlot(ctx context.Context, ext int64) (int64, error) {
	pair := s.pairOf(ext)
	s.meta.Lock()
	if slot := s.m.freeSlot(pair, s.slotsPer); slot >= 0 {
		// Reserve it against concurrent promotes on this pair by
		// pointing it at the extent right away; the map is persisted
		// only after the data lands, so a crash here is harmless.
		s.m.table[slot] = ext
		s.meta.Unlock()
		return slot, nil
	}
	// Full pair: pick the LRU clean occupant.
	victimSlot, victimExt := int64(-1), int64(-1)
	base := int64(pair) * s.slotsPer
	var oldest uint64
	for sl := base; sl < base+s.slotsPer; sl++ {
		e := s.m.table[sl]
		if e < 0 || s.dirty.IsMarked(sl) {
			continue
		}
		if victimSlot < 0 || s.lastUse[sl] < oldest {
			victimSlot, victimExt, oldest = sl, e, s.lastUse[sl]
		}
	}
	s.meta.Unlock()
	if victimSlot < 0 {
		return -1, nil
	}
	vlk := &s.locks[victimExt%64]
	sameLock := victimExt%64 == ext%64 // already held by the caller
	if !sameLock && !vlk.TryLock() {
		return -1, nil // contended victim: write around instead of risking deadlock
	}
	if !sameLock {
		defer vlk.Unlock()
	}
	// Recheck under the victim's lock: it may have been written (now
	// dirty) or evicted while we released meta.
	s.meta.Lock()
	if s.m.table[victimSlot] != victimExt || s.dirty.IsMarked(victimSlot) {
		s.meta.Unlock()
		return -1, nil
	}
	s.meta.Unlock()
	if err := s.invalidateTags(ctx, victimSlot); err != nil {
		return -1, err
	}
	s.meta.Lock()
	s.m.clear(victimSlot)
	s.m.table[victimSlot] = ext // reserve for the promote
	s.meta.Unlock()
	s.st.evictions.Add(1)
	return victimSlot, nil
}

// invalidateTags zeroes the slot's tag on both copies; it must precede any
// slot reuse, or a map-loss recovery could resurrect the previous
// occupant's stale content over data the back tier has since rewritten.
func (s *Store) invalidateTags(ctx context.Context, slot int64) error {
	return s.mirrorWrite(ctx, slot, make([]byte, tagSize), s.tagOff(slot))
}

// releaseSlot undoes a claimSlot reservation after a failed promote.
func (s *Store) releaseSlot(slot int64) {
	s.meta.Lock()
	s.m.table[slot] = -1
	s.meta.Unlock()
}

// demoteExtent pushes one extent's content down to the back tier
// through its normal deferred-parity write path. With evict it also
// frees the slot (tags zeroed first); otherwise the extent stays
// resident clean, still serving reads from the mirrors.
func (s *Store) demoteExtent(ctx context.Context, ext int64, evict bool) error {
	lk := &s.locks[ext%64]
	lk.Lock()
	defer lk.Unlock()

	s.meta.Lock()
	slot, ok := s.m.byExtent[ext]
	wasDirty := ok && s.dirty.IsMarked(slot)
	s.meta.Unlock()
	if !ok || (!wasDirty && !evict) {
		return nil // raced with a concurrent demote or eviction
	}

	start := s.opts.now()
	n := s.extentLen(ext)
	buf := bufpool.Get(int(s.extentSize))
	defer bufpool.Put(buf)
	if wasDirty {
		if err := s.mirrorRead(ctx, slot, buf[:n], s.slotOff(slot)); err != nil {
			return fmt.Errorf("tier: demoting extent %d: %w", ext, err)
		}
		if _, err := s.back.WriteContext(ctx, buf[:n], ext*s.extentSize); err != nil {
			return err
		}
	}
	if evict {
		if err := s.invalidateTags(ctx, slot); err != nil {
			return err
		}
	}
	s.meta.Lock()
	if s.dirty.Unmark(slot) {
		s.dirtyBytes -= n
	}
	var err error
	if evict {
		s.m.clear(slot)
		err = s.persistMapLocked()
	}
	s.meta.Unlock()
	if err != nil {
		return err
	}
	if wasDirty {
		s.st.demotes.Add(1)
		s.st.demotedBytes.Add(n)
		s.ob.demote.Observe(s.opts.now().Sub(start))
	}
	return nil
}

// demoteOne demotes the least-recently-used dirty extent, if any. It
// reports whether there was one.
func (s *Store) demoteOne(ctx context.Context) bool {
	s.meta.Lock()
	victim, oldest := int64(-1), uint64(0)
	for slot, ext := range s.m.table {
		if ext < 0 || !s.dirty.IsMarked(int64(slot)) {
			continue
		}
		if victim < 0 || s.lastUse[slot] < oldest {
			victim, oldest = ext, s.lastUse[slot]
		}
	}
	s.meta.Unlock()
	if victim < 0 {
		return false
	}
	// A failed demote (cut power line, lost pair) must read as "no
	// progress" or the pressure loop would spin against a dead tier.
	return s.demoteExtent(ctx, victim, false) == nil
}

// demoteAll demotes every dirty extent (and with evict frees every
// slot — the conservative full-demote recovery).
func (s *Store) demoteAll(ctx context.Context, evict bool) error {
	s.meta.Lock()
	var victims []int64
	for slot, ext := range s.m.table {
		if ext < 0 {
			continue
		}
		if evict || s.dirty.IsMarked(int64(slot)) {
			victims = append(victims, ext)
		}
	}
	s.meta.Unlock()
	for _, ext := range victims {
		if err := s.demoteExtent(ctx, ext, evict); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// migrator is the background engine: demote-on-idle paced by the idle
// rule, plus a dirty-bytes pressure valve that ignores idleness,
// plus an urgent drain whenever a front copy has failed (single-copy
// dirty data belongs in the parity tier, fast).
type migrator struct {
	s     *Store
	kickC chan struct{}
	stopC chan struct{}
	wg    sync.WaitGroup
}

// startMigrator starts s's migrator.
func startMigrator(s *Store) *migrator {
	m := &migrator{s: s, kickC: make(chan struct{}, 1), stopC: make(chan struct{})}
	m.wg.Add(1)
	go m.loop()
	return m
}

func (m *migrator) stop() {
	close(m.stopC)
	m.wg.Wait()
}

// kick wakes the loop early (pressure valve).
func (m *migrator) kick() {
	select {
	case m.kickC <- struct{}{}:
	default:
	}
}

// loop steps when the idle rule may have come due and on every kick.
func (m *migrator) loop() {
	defer m.wg.Done()
	m.s.rule.Run(m.s.opts.now, m.stopC, m.kickC, m.step)
}

// step is what the migrator wakes for, on one reading of the tier's
// clock: with a front copy failed, dirty bytes past the valve or the tier
// completely idle for IdleDelay, it demotes, until stop.
func (m *migrator) step() {
	s := m.s
	degraded := false
	for i := range s.copyFailed {
		degraded = degraded || s.copyFailed[i].Load()
	}
	pressure := s.dirtyBytesNow() > s.opts.MaxDirtyBytes
	start := s.opts.now()
	if !degraded && !pressure && !s.rule.Idle(start) {
		return
	}
	demoted := 0
	for {
		select {
		case <-m.stopC:
			return
		default:
		}
		// Under pressure drain to half the valve; when merely idle,
		// demote until a client op interrupts: the tier is no longer
		// idle at the episode's start.
		if !degraded {
			if pressure {
				if s.dirtyBytesNow() <= s.opts.MaxDirtyBytes/2 {
					break
				}
			} else if !s.rule.Idle(start) {
				break // interrupted
			}
		}
		if !s.demoteOne(context.Background()) {
			break
		}
		demoted++
	}
	if demoted > 0 {
		s.ob.migrate.Observe(s.opts.now().Sub(start))
	}
}
