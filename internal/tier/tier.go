// Package tier composes an HP AutoRAID-style hybrid out of two stores:
// a mirrored (RAID-1/0) write-back front tier over its own block
// devices, and an AFRAID back tier (core.Store) holding the cold bulk
// of the data. Small writes land on both copies of a front mirror pair
// and acknowledge immediately — no parity work in the write path at
// all — while a background migration engine demotes cold extents to
// the back tier through its normal deferred-parity write path, so the
// paper's loss contract composes across tiers: data is lost only when
// a failure lands inside a window the array has already promised to
// report.
//
// The address space is carved into fixed-size extents. An extent is
// either absent (served by the back tier) or resident in a front slot
// (served by the mirror pair, load-balanced across copies). Residency
// is persisted — an nvram.Bitmap plus a slot table behind a new magic
// — before any promote is acknowledged, so a crash never forgets which
// extents hold dirty front-tier data. Each front slot also carries a
// self-describing tag trailer on the media itself; if the persisted
// map is lost, recovery rebuilds residency from the tags and
// conservatively demotes everything to the back tier.
package tier

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"afraid/internal/core"
	"afraid/internal/idle"
	"afraid/internal/layout"
	"afraid/internal/nvram"
)

// DefaultExtentSize is the promotion/demotion unit: large enough that
// a demotion batch amortizes the back tier's stripe work, small enough
// that promoting a 4 KiB write does not drag megabytes up with it.
const DefaultExtentSize = 64 << 10

// Options configures a tier Store. The zero value picks defaults.
type Options struct {
	// ExtentSize is the migration unit in bytes (default
	// DefaultExtentSize). Must be a power-of-two multiple of 512.
	ExtentSize int64
	// MaxDirtyBytes is the pressure valve: above it the migrator
	// demotes regardless of idleness, and above twice it the write
	// path demotes inline. Default: half the front data capacity.
	MaxDirtyBytes int64
	// Idle paces demote-on-idle (default idle.NewTimer(DefaultDelay)).
	Idle idle.Detector
	// DisableMigrator turns the background engine off; demotion then
	// happens only through Flush, ParityPoint and the inline valve.
	// Tests use it for deterministic state machines.
	DisableMigrator bool
}

// Store is a two-tier array: a mirrored write-back front absorbing hot
// small writes over an AFRAID back end. It implements the same
// ReadAt/WriteAt/Flush/Stat surface as core.Store.
type Store struct {
	back  *core.Store
	front []core.BlockDevice // pairs: devs[2p], devs[2p+1] mirror each other
	nv    core.NVRAM
	opts  Options

	extentSize int64
	capacity   int64
	extents    int64 // ceil(capacity / extentSize)
	pairs      int
	slotsPer   int64 // slots per pair
	tagBase    int64 // device offset of the tag trailer

	meta       sync.Mutex
	m          *extentMap
	dirty      *nvram.Bitmap // over global slots; runtime-only (recovery marks resident ⇒ dirty)
	lastUse    []uint64      // per global slot, for LRU victim choice
	useClock   uint64
	dirtyBytes int64

	locks [64]sync.Mutex // extent lock pool, keyed extent % 64

	copyFailed []atomic.Bool  // per front device, set on ErrDeviceFailed
	inflight   []atomic.Int64 // per front device, reads in flight
	rrTick     atomic.Uint64
	lastOp     atomic.Int64 // UnixNano of the latest client op (idle detection)
	bufs       sync.Pool    // extent-size scratch buffers

	st  stats
	ob  *tierObs
	mig *migrator

	closed atomic.Bool
}

// Errors.
var (
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("tier: store closed")
	// ErrDataLoss re-exports the back tier's reported-loss error; the
	// front tier returns it (wrapped) when both copies of a dirty
	// extent are gone.
	ErrDataLoss = core.ErrDataLoss
)

// tagSize is the per-slot tag in the trailer: magic(4) crc(4) extent(8).
const tagSize = 16

// Open assembles the hybrid. back is the AFRAID (or RAID-5) store the
// cold data lives in; front is an even number of equally-sized block
// devices forming mirror pairs; nv persists the extent map. Open
// resilvers the mirror copies of every resident extent (a crash may
// have left an in-flight write on one copy only) and, if the map image
// is unreadable, rebuilds residency from the on-media slot tags and
// conservatively demotes everything.
func Open(back *core.Store, front []core.BlockDevice, nv core.NVRAM, opts Options) (*Store, error) {
	if back == nil {
		return nil, errors.New("tier: nil back store")
	}
	if len(front) < 2 || len(front)%2 != 0 {
		return nil, fmt.Errorf("tier: need an even number of front devices >= 2, have %d", len(front))
	}
	if len(front) > 64 {
		// The persisted failed-copy mask is one word.
		return nil, fmt.Errorf("tier: at most 64 front devices, have %d", len(front))
	}
	if opts.ExtentSize == 0 {
		opts.ExtentSize = DefaultExtentSize
	}
	if opts.ExtentSize < 512 || opts.ExtentSize&(opts.ExtentSize-1) != 0 {
		return nil, fmt.Errorf("tier: extent size %d must be a power-of-two >= 512", opts.ExtentSize)
	}
	devSize := front[0].Size()
	for i, d := range front {
		if d.Size() != devSize {
			return nil, fmt.Errorf("tier: front device %d is %d bytes, want %d", i, d.Size(), devSize)
		}
	}
	slotsPer := devSize / (opts.ExtentSize + tagSize)
	if slotsPer < 1 {
		return nil, fmt.Errorf("tier: front devices too small for one %d-byte extent", opts.ExtentSize)
	}
	s := &Store{
		back:       back,
		front:      front,
		nv:         nv,
		opts:       opts,
		extentSize: opts.ExtentSize,
		capacity:   back.Capacity(),
		pairs:      len(front) / 2,
		slotsPer:   slotsPer,
		tagBase:    slotsPer * opts.ExtentSize,
		ob:         newTierObs(),
	}
	s.extents = (s.capacity + s.extentSize - 1) / s.extentSize
	totalSlots := int64(s.pairs) * slotsPer
	if opts.MaxDirtyBytes <= 0 {
		s.opts.MaxDirtyBytes = totalSlots * s.extentSize / 2
	}
	if opts.Idle == nil {
		s.opts.Idle = idle.NewTimer(idle.DefaultDelay)
	}
	s.dirty = nvram.NewBitmap(totalSlots)
	s.lastUse = make([]uint64, totalSlots)
	s.copyFailed = make([]atomic.Bool, len(front))
	s.inflight = make([]atomic.Int64, len(front))
	s.bufs.New = func() any { return make([]byte, s.extentSize) }
	s.lastOp.Store(time.Now().UnixNano())

	if err := s.recover(); err != nil {
		return nil, err
	}

	if !s.opts.DisableMigrator {
		s.mig = newMigrator(s)
		s.mig.start()
	}
	return s, nil
}

// recover loads the persisted map (or rebuilds it from slot tags),
// resilvers mirror copies, and conservatively marks every resident
// extent dirty so recovery never leaves acknowledged data stranded.
func (s *Store) recover() error {
	totalSlots := int64(s.pairs) * s.slotsPer
	img, err := s.nv.Load()
	if err != nil {
		return fmt.Errorf("tier: loading extent map: %w", err)
	}
	m, failedMask, derr := deserializeMap(img, s.extentSize, totalSlots, s.extents)
	if derr == nil && len(img) == 0 {
		// An empty image normally means first boot — but a deleted or
		// zeroed-out map file looks identical, and trusting it would
		// silently strand any dirty front data. The slot tags
		// disambiguate for free: a true first boot has blank front
		// devices and an empty scan, while tagged slots under an empty
		// map mean the marking memory was destroyed.
		scanned, err := s.scanTags()
		if err != nil {
			return err
		}
		if len(scanned.byExtent) > 0 {
			derr = errors.New("tier: empty extent map but tagged slots on media")
		}
	}
	if derr != nil {
		// Map loss: the paper's marking-memory failure, one tier up.
		// Rebuild residency from the self-describing slot tags, then
		// demote everything — without the map we no longer trust our
		// placement decisions, so the only conservative home for the
		// data is the fully-redundant back tier. (The failed-copy mask
		// is lost with the map; losing both it and a mirror copy at
		// once is a double failure outside the contract, same as NVRAM
		// loss plus a disk death in the paper.)
		s.st.mapRecovered.Store(true)
		m, err = s.scanTags()
		if err != nil {
			return err
		}
		s.m = m
		if err := s.resilver(); err != nil {
			return err
		}
		s.markAllResidentDirty()
		if err := s.demoteAll(context.Background(), true); err != nil {
			return fmt.Errorf("tier: full-demote recovery: %w", err)
		}
		s.meta.Lock()
		defer s.meta.Unlock()
		return s.persistMapLocked()
	}
	// Copies flagged failed in the persisted image are stale — the
	// mirror kept taking writes after they died — and resilver must
	// treat them as such even if the hardware answers again.
	for i := range s.copyFailed {
		if failedMask&(1<<uint(i)) != 0 {
			s.copyFailed[i].Store(true)
		}
	}
	s.m = m
	if err := s.resilver(); err != nil {
		return err
	}
	s.markAllResidentDirty()
	return nil
}

// markAllResidentDirty applies the recovery conservatism: a clean
// resident extent whose dirtying write raced the crash must not be
// treated as clean, so every survivor is considered dirty and will be
// re-demoted (re-writing identical bytes for truly clean ones).
func (s *Store) markAllResidentDirty() {
	s.meta.Lock()
	defer s.meta.Unlock()
	for slot, ext := range s.m.table {
		if ext >= 0 {
			if s.dirty.Mark(int64(slot)) {
				s.dirtyBytes += s.extentLen(ext)
			}
		}
	}
}

// extentLen is the extent's byte length (the last extent may be short).
func (s *Store) extentLen(ext int64) int64 {
	if l := s.capacity - ext*s.extentSize; l < s.extentSize {
		return l
	}
	return s.extentSize
}

// pairOf maps an extent to its mirror pair (RAID-1/0 striping).
func (s *Store) pairOf(ext int64) int { return int(ext % int64(s.pairs)) }

// slotOff is the device offset of a slot's data.
func (s *Store) slotOff(slot int64) int64 { return (slot % s.slotsPer) * s.extentSize }

// globalSlot combines pair and per-pair slot into the map index.
func globalSlot(pair int, slot int64, slotsPer int64) int64 { return int64(pair)*slotsPer + slot }

// Capacity returns the client-visible byte capacity (the back tier's;
// the front is a staging area, not extra space).
func (s *Store) Capacity() int64 { return s.capacity }

// Geometry returns the back tier's layout.
func (s *Store) Geometry() layout.Geometry { return s.back.Geometry() }

// Back returns the underlying back-tier store (for repair and
// parity-check plumbing in tests and the daemon).
func (s *Store) Back() *core.Store { return s.back }

// ReadAt implements io.ReaderAt over the composed address space.
func (s *Store) ReadAt(p []byte, off int64) (int, error) {
	return s.ReadContext(context.Background(), p, off)
}

// WriteAt implements io.WriterAt over the composed address space.
func (s *Store) WriteAt(p []byte, off int64) (int, error) {
	return s.WriteContext(context.Background(), p, off)
}

// ReadContext reads len(p) bytes at off, serving resident extents from
// the front mirrors (load-balanced) and everything else from the back
// tier.
func (s *Store) ReadContext(ctx context.Context, p []byte, off int64) (int, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if off < 0 || off+int64(len(p)) > s.capacity {
		return 0, fmt.Errorf("tier: read [%d,%d) outside capacity %d", off, off+int64(len(p)), s.capacity)
	}
	done := 0
	for done < len(p) {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		ext := (off + int64(done)) / s.extentSize
		extOff := (off + int64(done)) % s.extentSize
		n := int(s.extentLen(ext) - extOff)
		if rem := len(p) - done; n > rem {
			n = rem
		}
		if err := s.readExtent(ctx, ext, extOff, p[done:done+n]); err != nil {
			return done, err
		}
		done += n
	}
	s.st.reads.Add(1)
	s.st.bytesRead.Add(int64(len(p)))
	s.lastOp.Store(time.Now().UnixNano())
	return done, nil
}

// readExtent reads one extent-local range from whichever tier owns it.
func (s *Store) readExtent(ctx context.Context, ext, extOff int64, p []byte) error {
	lk := &s.locks[ext%64]
	lk.Lock()
	defer lk.Unlock()

	s.meta.Lock()
	slot, resident := s.m.byExtent[ext]
	if resident {
		s.useClock++
		s.lastUse[slot] = s.useClock
	}
	s.meta.Unlock()

	if !resident {
		s.st.frontReadMisses.Add(1)
		_, err := s.back.ReadContext(ctx, p, ext*s.extentSize+extOff)
		return err
	}
	s.st.frontReadHits.Add(1)
	start := time.Now()
	err := s.frontRead(slot, extOff, p)
	s.ob.frontRead.Observe(time.Since(start))
	return err
}

// WriteContext writes len(p) bytes at off. Resident extents take the
// fast path (two mirror writes, no map traffic); small writes to
// absent extents promote them; large ops write around the front
// straight to the back tier's deferred-parity path.
func (s *Store) WriteContext(ctx context.Context, p []byte, off int64) (int, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if off < 0 || off+int64(len(p)) > s.capacity {
		return 0, fmt.Errorf("tier: write [%d,%d) outside capacity %d", off, off+int64(len(p)), s.capacity)
	}
	// An op of up to two extents promotes its non-resident extents; a
	// larger one writes around the front tier straight to the back end.
	writeAround := int64(len(p)) > 2*s.extentSize
	done := 0
	for done < len(p) {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		ext := (off + int64(done)) / s.extentSize
		extOff := (off + int64(done)) % s.extentSize
		n := int(s.extentLen(ext) - extOff)
		if rem := len(p) - done; n > rem {
			n = rem
		}
		if err := s.writeExtent(ctx, ext, extOff, p[done:done+n], writeAround); err != nil {
			return done, err
		}
		done += n
	}
	s.st.writes.Add(1)
	s.st.bytesWritten.Add(int64(len(p)))
	s.lastOp.Store(time.Now().UnixNano())
	// Hard pressure: the migrator is behind; pay one demotion inline
	// (the analogue of the back tier's nvram.Engine.Kick valve) so dirty
	// bytes cannot grow without bound.
	if s.dirtyBytesNow() > 2*s.opts.MaxDirtyBytes {
		s.demoteOne(ctx)
	} else if s.mig != nil && s.dirtyBytesNow() > s.opts.MaxDirtyBytes {
		s.mig.kick()
	}
	return done, nil
}

func (s *Store) dirtyBytesNow() int64 {
	s.meta.Lock()
	defer s.meta.Unlock()
	return s.dirtyBytes
}

// writeExtent routes one extent-local write.
func (s *Store) writeExtent(ctx context.Context, ext, extOff int64, p []byte, writeAround bool) error {
	lk := &s.locks[ext%64]
	lk.Lock()
	defer lk.Unlock()

	s.meta.Lock()
	slot, resident := s.m.byExtent[ext]
	s.meta.Unlock()

	if resident {
		s.st.frontWriteHits.Add(1)
		start := time.Now()
		if err := s.frontWrite(slot, extOff, p); err != nil {
			return err
		}
		s.ob.frontWrite.Observe(time.Since(start))
		s.meta.Lock()
		if s.dirty.Mark(slot) {
			s.dirtyBytes += s.extentLen(ext)
		}
		s.useClock++
		s.lastUse[slot] = s.useClock
		s.meta.Unlock()
		return nil
	}

	if writeAround || s.pairDegraded(s.pairOf(ext)) {
		s.st.writeArounds.Add(1)
		_, err := s.back.WriteContext(ctx, p, ext*s.extentSize+extOff)
		return err
	}
	return s.promote(ctx, ext, extOff, p)
}

// pairDegraded reports whether either copy of a pair has failed; new
// promotes avoid degraded pairs (a single-copy front is worse than the
// parity tier).
func (s *Store) pairDegraded(pair int) bool {
	return s.copyFailed[2*pair].Load() || s.copyFailed[2*pair+1].Load()
}

// Flush demotes every dirty extent and then drives the back tier to a
// parity point: afterwards all data is fully redundant.
func (s *Store) Flush() error { return s.FlushContext(context.Background()) }

// FlushContext is Flush with cancellation.
func (s *Store) FlushContext(ctx context.Context) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.demoteAll(ctx, false); err != nil {
		return err
	}
	return s.back.FlushContext(ctx)
}

// ParityPoint makes the stripes covering [off, off+length) redundant,
// demoting any dirty front extents overlapping the range first.
func (s *Store) ParityPoint(off, length int64) error {
	return s.ParityPointContext(context.Background(), off, length)
}

// ParityPointContext is ParityPoint with cancellation.
func (s *Store) ParityPointContext(ctx context.Context, off, length int64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	lo := off / s.extentSize
	hi := (off + length + s.extentSize - 1) / s.extentSize
	s.meta.Lock()
	var victims []int64
	for ext := lo; ext < hi && ext < s.extents; ext++ {
		if slot, ok := s.m.byExtent[ext]; ok && s.dirty.IsMarked(slot) {
			victims = append(victims, ext)
		}
	}
	s.meta.Unlock()
	for _, ext := range victims {
		if err := s.demoteExtent(ctx, ext, false); err != nil {
			return err
		}
	}
	return s.back.ParityPointContext(ctx, off, length)
}

// Close stops the migrator and persists the extent map. Dirty data
// stays in the front tier — that is the write-back contract; reopening
// recovers it. Call Flush first for a fully-demoted shutdown.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	if s.mig != nil {
		s.mig.stop()
	}
	s.meta.Lock()
	err := s.persistMapLocked()
	s.meta.Unlock()
	return err
}
