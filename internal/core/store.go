package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"afraid/internal/layout"
	"afraid/internal/nvram"
	"afraid/internal/obs"
	"afraid/internal/stripe"
)

// Mode names a preset: a parity geometry — m parity units per stripe —
// and the sync count every stripe opens with, n of those m parities (P,
// then P and Q) that a write keeps current while the rest are deferred
// behind a mark to the scrubber. SetSync changes the count stripe by
// stripe.
type Mode int

const (
	// Afraid (m=1, n=0) writes data immediately, marks stripes unredundant
	// in NVRAM, and lets the scrubber rebuild parity in idle periods.
	Afraid Mode = iota
	// Raid5 (m=1, n=1) keeps parity synchronously consistent
	// (read-modify-write in the write path), marking each stripe in NVRAM
	// only while a write to it is in flight.
	Raid5
	// Raid0 (m=0) keeps no parity.
	Raid0
	// Raid6 (m=2, n=2) keeps P and Q parity synchronously consistent (§5).
	Raid6
	// Afraid6 (m=2, n=1) is the §5 extension: P is maintained
	// synchronously and Q deferred to the scrubber (single-failure
	// protection at all times).
	Afraid6
)

// presets is each Mode's row: its name, layout and default sync count.
var presets = [...]struct {
	name  string
	level layout.Level
	sync  uint8
}{
	Afraid:  {"afraid", layout.RAID5, 0},
	Raid5:   {"raid5", layout.RAID5, 1},
	Raid0:   {"raid0", layout.RAID0, 0},
	Raid6:   {"raid6", layout.RAID6, 2},
	Afraid6: {"afraid6", layout.RAID6, 1},
}

// String returns the mode name.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(presets) {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return presets[m].name
}

// ParseMode is the inverse of String over the presets: the mode a name
// such as "raid5" names, or an error for a name no preset has.
func ParseMode(name string) (Mode, error) {
	for m := range presets {
		if presets[m].name == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q", name)
}

// Options configures a Store.
type Options struct {
	// Mode is the redundancy preset (default Afraid).
	Mode Mode
	// StripeUnit is the per-disk stripe unit size (default 8 KB).
	StripeUnit int64
	// ScrubIdle is how long the store must be quiescent before the
	// background scrubber rebuilds parity (default 100 ms, the paper's
	// idle threshold).
	ScrubIdle time.Duration
	// DirtyThreshold, when positive, lets the scrubber run even under
	// load once more than this many stripes are unredundant.
	DirtyThreshold int
	// DisableScrubber turns the background goroutine off; parity is
	// then rebuilt only by Flush/ParityPoint.
	DisableScrubber bool
	// Checksums enables per-unit CRC32C verification: every member
	// reserves a checksum trailer, writes refresh it, reads and scrubs
	// verify against it, and a mismatch is repaired from redundancy or
	// reported as loss — never served silently (see checksum.go). The
	// trailer claims a little of each device, so a store must keep the
	// setting it was created with.
	Checksums bool

	// workers, when positive, replaces scrubWorkers' width; a test sets
	// 1 to drain serially.
	workers int
}

func (o *Options) fill() {
	if o.StripeUnit == 0 {
		o.StripeUnit = 8 << 10
	}
	if o.ScrubIdle == 0 {
		o.ScrubIdle = 100 * time.Millisecond
	}
}

// Errors reported by the store.
var (
	// ErrDataLoss marks bytes that are unrecoverable: they lived on a
	// failed disk in a stripe whose parity was stale (the AFRAID
	// exposure window) or in a store with no parity. It is the error a
	// stripe image gives when fresh parities cannot cover what is missing.
	ErrDataLoss = stripe.ErrDataLoss
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("core: store is closed")
	// ErrTooManyFailures means more disks are failed than the
	// redundancy can absorb.
	ErrTooManyFailures = errors.New("core: multiple disk failures")
)

// Stats counts store activity.
type Stats struct {
	Reads, Writes           uint64
	BytesRead, BytesWritten int64
	ScrubbedStripes         uint64
	ForcedScrubs            uint64
	DegradedReads           uint64
	DegradedWrites          uint64 // spans written back around missing members
	RecoveredStripes        uint64 // stale units rebuilt during RepairDisk, by its sweep or a write ahead of it
	DamagedStripes          uint64
	NVRAMRecovered          bool // full-array rebuild after bad NVRAM image
	DirtyStripes            int64

	IdleEpisodes   uint64 // scrub episodes begun on idle detection
	ForcedEpisodes uint64 // scrub episodes begun over the dirty threshold
	ScrubPreempts  uint64 // idle rebuilds abandoned to fresh foreground I/O
	InlineScrubs   uint64 // stripes rebuilt inline by the write-path pressure valve
	DirtyHighWater int64  // most stripes simultaneously unredundant
	DamageBytes    int64  // bytes lost to disk failures in unprotected stripes

	ChecksumDetected uint64 // unit reads that failed checksum verification, or that their member reported lost
	ChecksumRepaired uint64 // such units rewritten from redundancy
	ChecksumLost     uint64 // such units beyond redundancy (reported loss)

	HedgedReads uint64 // straggling unit reads raced against reconstruction (hedge.go)
	HedgeWins   uint64 // hedges that answered before the straggler

	NVRAMPersists uint64 // NVRAM writes issued (group commit batches markers)

	FullStripeWrites uint64 // stripes written whole by a full-stripe run (writeRun), no pre-read, no mark left

	ReadCacheHits   uint64 // reads served whole from the controller read cache (readcache.go)
	ReadCacheMisses uint64 // reads that consulted it and went to the members
}

// Store is the functional AFRAID array.
type Store struct {
	geo  layout.Geometry
	devs []BlockDevice
	opts Options

	// The stripe protocol's constants (stripe.go), fixed at Open.
	arr    *stripe.Array   // stripe images and the fan-out that overlaps their units
	allPar stripe.Parities // every parity of the layout's code

	// eng is the deferred-redundancy engine: the marking memory (one unit
	// per stripe, and each member's stale stripes) with its NVRAM group
	// commit, the idle and pressure triggers, the drains, and the
	// quarantine — stripes its scrubOne callback put on hold. It has its
	// own lock, taken after meta if both.
	eng *nvram.Engine

	meta     sync.Mutex      // guards everything below
	sync     []uint8         // per stripe, the parities its writes keep current (syncSet); changed under its stripe lock too
	failed   stripe.Set      // the absent members, in failure order; a present one is missing where the engine holds it stale
	sweeping nvram.MemberSet // members a RepairDisk call is sweeping
	closed   bool
	stats    Stats // the scrub, exposure and NVRAM fields are filled from eng by Stats()

	locks [64]sync.Mutex // stripe lock pool (stripe % 64)

	fullStripes atomic.Uint64 // Stats.FullStripeWrites, counted off meta on the write-run path

	rc *readCache // the controller read cache; nil where a stripe unit is larger

	ob *storeObs
}

// spanPool recycles the span slices ReadContext/WriteContext split
// I/Os into (SplitAppend reuses both the slice and each entry's
// Extents backing), removing the per-call splitting garbage from the
// foreground hot path.
var spanPool = sync.Pool{New: func() any { return new([]layout.StripeSpan) }}

// Open assembles a store over the devices, recovering the marking
// memory from nv. A corrupt or mismatched NVRAM image triggers the
// paper's recovery procedure: every stripe is marked for rebuild. Every
// mode that keeps parity marks a stripe before writing it, Raid5 and
// Raid6 included, so each needs a durable nv for crash consistency: a
// mark found here vouches for no parity of its stripe until the scrubber
// (or Flush) has re-encoded them all. A nil nv keeps marks in memory only.
func Open(devs []BlockDevice, nv NVRAM, opts Options) (*Store, error) {
	opts.fill()
	if opts.Mode < 0 || int(opts.Mode) >= len(presets) {
		return nil, fmt.Errorf("core: unknown mode %v", opts.Mode)
	}
	preset := presets[opts.Mode]
	if len(devs) < 2 && preset.level != layout.RAID0 {
		return nil, fmt.Errorf("core: %v needs at least 2 devices, have %d", opts.Mode, len(devs))
	}
	if len(devs) < 1 {
		return nil, fmt.Errorf("core: need at least 1 device")
	}
	size := devs[0].Size()
	for i, d := range devs {
		if d.Size() != size {
			return nil, fmt.Errorf("core: device %d size %d differs from device 0 size %d", i, d.Size(), size)
		}
	}
	// With checksums, each device gives up trailer pages for its
	// checksum slots; the usable size shrinks so data plus trailer fit.
	size = layout.UsableDiskSize(size, opts.StripeUnit, opts.Checksums)
	if size == 0 {
		return nil, fmt.Errorf("core: devices smaller than one stripe unit (plus checksum trailer)")
	}
	geo := layout.Geometry{
		Disks:      len(devs),
		StripeUnit: opts.StripeUnit,
		DiskSize:   size,
		Level:      preset.level,
	}
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	s := &Store{
		geo:  geo,
		devs: slices.Clone(devs), // RepairDisk installs into the store's slots, not the caller's
		opts: opts,
		ob:   newStoreObs(),
		sync: make([]uint8, geo.Stripes()),
		rc:   newReadCache(opts.StripeUnit),
	}
	for i := range s.sync {
		s.sync[i] = preset.sync
	}
	s.arr = stripe.New(geo, s.ob.parity.Observe)
	s.allPar = s.arr.AllParities()
	// Probe the members: a disk that failed before a crash is still
	// failed after reopen, and the store must know before issuing I/O.
	// Any probe error counts — an unreadable member is an absent member,
	// whether it reports a bare ErrDeviceFailed, a wrapped one from a
	// fault-injection layer, or a real I/O error.
	probe := make([]byte, 1)
	for i, d := range devs {
		if _, err := d.ReadAt(probe, 0); err == nil {
			continue
		}
		if !s.failed.Add(i, s.maxFailed()) {
			return nil, fmt.Errorf("core: devices %v and %d all failed: %w", s.failed.List(), i, ErrTooManyFailures)
		}
	}
	// The marking memory: a corrupt or mismatched image comes back with
	// every stripe marked (Stats.NVRAMRecovered) and no member stale.
	var err error
	s.eng, err = nvram.NewEngine(nvram.Config{
		Units:         geo.Stripes(),
		Members:       len(devs),
		NV:            nv,
		Idle:          opts.ScrubIdle,
		Threshold:     int64(opts.DirtyThreshold),
		Workers:       s.scrubWorkers(),
		MakeRedundant: s.scrubOne,
		Episode:       s.ob.scrubEpisode.Observe,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// A member the image holds stale stripes on was absent, or under
	// repair, when the last incarnation stopped: it is missing where it is
	// stale until RepairDisk onto it sweeps them. One whose probe failed
	// with no such record is stale everywhere, durably before the store
	// serves: a later incarnation that finds it answering again must not
	// trust what it holds.
	for _, i := range s.failed.List() {
		if s.eng.StaleCount(i) == 0 {
			if err := s.eng.MarkStale(i, 0, geo.Stripes()); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
	}
	if opts.Checksums {
		if err := s.formatChecksums(); err != nil {
			return nil, fmt.Errorf("core: formatting checksum trailers: %w", err)
		}
	}
	if !opts.DisableScrubber && s.allPar != 0 {
		s.eng.Start()
	}
	return s, nil
}

// Close stops the scrubber and closes the devices. Dirty stripes stay
// recorded in NVRAM; the next Open resumes their rebuild (crash-safe by
// construction). Use Flush first for a clean shutdown.
func (s *Store) Close() error {
	s.meta.Lock()
	if s.closed {
		s.meta.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.meta.Unlock()
	s.eng.Stop()
	// Sync counts are not persisted, and a mark a clean image hands down
	// vouches for the preset's sync set at the next Open. One on a stripe
	// that keeps fewer is distrusted, which leaves the image unflagged.
	s.meta.Lock()
	for _, st := range s.eng.Marked() {
		if s.sync[st] < presets[s.opts.Mode].sync {
			s.eng.Distrust(st)
		}
	}
	s.meta.Unlock()
	// Writes clear their marks in memory only; a clean shutdown should not
	// cost the next Open their rebuilds, nor leave the marks that stand
	// reading as writes a crash tore.
	first := s.eng.Close()
	for _, d := range s.devs {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Capacity returns the client-visible size in bytes.
func (s *Store) Capacity() int64 { return s.geo.Capacity() }

// Geometry returns the striping parameters.
func (s *Store) Geometry() layout.Geometry { return s.geo }

// DirtyStripes returns the number of unredundant stripes.
func (s *Store) DirtyStripes() int64 { return s.eng.Count() }

// DeadDisks returns the members that are not whole: the absent ones, in
// failure order, then those present with stale units (a repair not yet
// finished). Empty when the array is healthy.
func (s *Store) DeadDisks() []int {
	s.meta.Lock()
	dead := append([]int(nil), s.failed.List()...)
	s.meta.Unlock()
	for on := s.eng.StaleMembers(); on != 0; on &= on - 1 {
		if d := bits.TrailingZeros64(uint64(on)); !slices.Contains(dead, d) {
			dead = append(dead, d)
		}
	}
	return dead
}

// Absent reports whether member i is absent: failed, and not handed back
// by RepairDisk since.
func (s *Store) Absent(i int) bool {
	s.meta.Lock()
	defer s.meta.Unlock()
	return s.failed.Has(i)
}

// Engine returns the store's marking memory: the marks, each member's
// stale units and the drains that empty them, for a harness that steps or
// inspects them.
func (s *Store) Engine() *nvram.Engine { return s.eng }

// DirtyList returns the stripes currently marked unredundant — the
// paper's exposure set, enumerated. A crash harness samples it at
// failure time to bound which stripes may legally lose data.
func (s *Store) DirtyList() []int64 { return s.eng.Marked() }

// Stats returns a snapshot of activity counters.
func (s *Store) Stats() Stats {
	s.meta.Lock()
	st := s.stats
	s.meta.Unlock()
	es := s.eng.Stats()
	st.DirtyStripes, st.DirtyHighWater = es.Marked, es.HighWater
	st.ScrubbedStripes, st.ForcedScrubs, st.InlineScrubs = es.Drained, es.Forced, es.Inline
	st.IdleEpisodes, st.ForcedEpisodes, st.ScrubPreempts = es.IdleEpisodes, es.ForcedEpisodes, es.Preempts
	st.NVRAMPersists, st.NVRAMRecovered = es.Persists, es.Recovered
	st.FullStripeWrites = s.fullStripes.Load()
	return st
}

// whole reports whether every member is present and current on every
// stripe.
func (s *Store) whole() bool {
	s.meta.Lock()
	absent := s.failed.Len()
	s.meta.Unlock()
	return absent == 0 && s.eng.StaleMembers() == 0
}

// maxFailed is how many member failures the store absorbs before
// refusing more: one per parity unit. A RAID 0 store still tracks a
// single failed member so that its loss can be reported and repaired.
func (s *Store) maxFailed() int { return max(s.geo.Level.ParityUnits(), 1) }

// stripeLock returns the lock covering a stripe.
func (s *Store) stripeLock(stripe int64) *sync.Mutex {
	return &s.locks[stripe%int64(len(s.locks))]
}

// scrubWorkers is how many stripes Flush, ParityPoint, CheckParity and
// the RepairDisk sweep rebuild at once: min(GOMAXPROCS, data disks) —
// wider gains nothing once every spindle has a read in flight, narrower
// wastes idle devices.
func (s *Store) scrubWorkers() int {
	if s.opts.workers > 0 {
		return s.opts.workers
	}
	return max(1, min(runtime.GOMAXPROCS(0), s.geo.DataDisks()))
}

// SetSync sets the sync count of the stripes of [off, off+length): how
// many of the layout's m parities, P first, their writes keep current, the
// rest deferred behind a mark to the scrubber (§5: "stripe-aligned subsets
// of an AFRAID's storage space could be permanently flagged with different
// redundancy properties"). The range must cover whole stripes. A count
// applies from the stripe's next write. A stripe marked when its count
// changes keeps its mark, which from then on vouches for no parity until
// the stripe is re-encoded. Counts are not persisted: Open gives every
// stripe its Mode's.
func (s *Store) SetSync(off, length int64, n int) error {
	sb := s.geo.StripeDataBytes()
	if off%sb != 0 || length%sb != 0 {
		return fmt.Errorf("core: sync range [%d,%d) not stripe-aligned (stripe data bytes %d)", off, off+length, sb)
	}
	if off < 0 || length < 0 || length > s.geo.Capacity() || off > s.geo.Capacity()-length {
		return fmt.Errorf("core: sync range outside capacity")
	}
	if m := s.geo.Level.ParityUnits(); n < 0 || n > m {
		return fmt.Errorf("core: sync count %d outside [0, %d]", n, m)
	}
	for st := off / sb; st < (off+length)/sb; st++ {
		lk := s.stripeLock(st)
		lk.Lock()
		s.meta.Lock()
		if int(s.sync[st]) != n {
			s.sync[st] = uint8(n)
			s.eng.Distrust(st)
		}
		s.meta.Unlock()
		lk.Unlock()
	}
	return nil
}

// ReadAt implements io.ReaderAt over the client address space.
func (s *Store) ReadAt(p []byte, off int64) (int, error) {
	return s.ReadContext(context.Background(), p, off)
}

// ReadContext is ReadAt with cancellation: the context is checked
// before each stripe span or run, so a network frontend's per-request
// deadline stops a large read between them instead of after it completes.
// Already-read spans are not undone; a cancelled read returns 0 and the
// context's error.
func (s *Store) ReadContext(ctx context.Context, p []byte, off int64) (int, error) {
	return s.request(ctx, "READ", p, off, s.readSpan, false, s.ob.devRead)
}

// WriteAt implements io.WriterAt over the client address space.
func (s *Store) WriteAt(p []byte, off int64) (int, error) {
	return s.WriteContext(context.Background(), p, off)
}

// WriteContext is WriteAt with cancellation, checked before each stripe
// span. Spans written before cancellation stay written (the store has
// no transactions); the caller learns how far the write got only by
// re-reading, exactly as after a crash.
func (s *Store) WriteContext(ctx context.Context, p []byte, off int64) (int, error) {
	return s.request(ctx, "WRITE", p, off, s.writeSpan, true, s.ob.devWrite)
}

// request serves one client read or write: split it into stripe spans and
// run span on each under its stripe lock, absorbing what can be absorbed.
// Where the layout and the members allow, one call takes several spans at
// once (lockRun): a write's full-stripe run on a layout with parity
// (writeRun), a read's run of whole stripes (readRun), a fold on a layout
// with neither parity nor checksum slots (foldRun). A run that fails leaves
// its spans to be served one by one, each absorbing what it meets. A write
// is premarked. Under the locks the read cache serves a read from memory,
// and takes in what the member I/O of a span or run moved (readcache.go).
// The lock wait and the time under the locks go to the stripe_lock_wait
// and dev histograms per span or run and, summed, to the op's trace event.
func (s *Store) request(ctx context.Context, label string, p []byte, off int64,
	span func(ctx context.Context, p []byte, base int64, sp layout.StripeSpan) error, write bool, devHist *obs.Histogram) (n int, err error) {
	if err := s.checkRange(off, int64(len(p))); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	s.eng.Touch()
	start := time.Now()
	var lockWait, dev time.Duration
	defer func() { s.traceOp(label, off, int64(len(p)), start, lockWait, dev, err) }()
	spp := spanPool.Get().(*[]layout.StripeSpan)
	spans := s.geo.SplitAppend((*spp)[:0], off, int64(len(p)))
	defer func() { *spp = spans; spanPool.Put(spp) }()
	if write && s.allPar != 0 && len(spans) > 1 {
		if err = s.premark(spans); err != nil {
			return 0, err
		}
	}
	var rp readPlan
	co := s.cacheOp(write, len(p))
	for rest, alone := spans, 0; len(rest) > 0; {
		if err = ctx.Err(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		unfolded := rest[0].Extents[0].Len
		n, kind := s.lockRun(rest, write, alone > 0, &rp)
		held := rest[:1]
		if kind != oneSpan {
			held = rest[:n]
		}
		t1 := time.Now()
		hit := co.read && s.rc.serve(p, off, held)
		co.missed = co.missed || !hit
		for tries := 0; ; tries++ {
			switch {
			case hit:
			case kind == fullStripeRun:
				err = s.writeRun(ctx, p, off, rest[:n])
			case kind == wholeStripeRead:
				err = s.readRun(ctx, p, off, rest[:n], &rp)
			default:
				err = span(ctx, p, off, rest[0])
			}
			// A member reporting fail-stop failure mid-span moves the
			// store to degraded mode; retry the span, now reconstructing
			// around the dead disk (a write under the degraded protocol).
			// absorbFailure refuses once the redundancy is exhausted; the
			// tries bound guards against a span that keeps tripping on an
			// already-absorbed member. A checksum mismatch is absorbed the
			// same way: repair the one corrupt unit from redundancy, then
			// retry the span, and so is a unit its member reports lost. A
			// write's reads all precede its first device write, so a unit
			// error met by them left nothing half-written; one met while
			// writing (a partial unit's verify, a member's loss) left every
			// other unit written and the mark standing, and the repair solves
			// the skipped unit through the sync parities, which already
			// encode the new data. A run of several spans absorbs a failed
			// member and leaves the rest to its spans, one by one.
			if err == nil || tries >= s.spanRetryBudget() {
				break
			}
			absorbed := s.absorbFailure(err)
			if n > 1 {
				break
			}
			if absorbed {
				kind = oneSpan
				continue
			}
			var retry bool
			if retry, err = s.absorbUnit(ctx, err); !retry {
				break
			}
		}
		switch {
		case err == nil && !hit:
			s.rc.fill(&co, p, off, held)
		case err != nil && write:
			s.rc.drop(held)
		}
		for _, sp := range held {
			s.stripeLock(sp.Stripe).Unlock()
		}
		t2 := time.Now()
		if !write && !hit && err == nil {
			s.rc.timed(t2.Sub(t1), held)
		}
		s.ob.lockWait.Observe(t1.Sub(t0))
		devHist.Observe(t2.Sub(t1))
		lockWait += t1.Sub(t0)
		dev += t2.Sub(t1)
		switch {
		case err != nil && n > 1:
			// Its marks standing, the run's spans go one by one, and the
			// span that meets the error alone absorbs it or fails with it.
			rest[0].Extents[0].Len = unfolded
			alone = n
			continue
		case err != nil:
			if errors.Is(err, ErrDataLoss) {
				s.rc.dropAll()
			}
			return 0, s.opError(err)
		}
		rest, alone = rest[n:], max(alone-n, 0)
	}
	s.meta.Lock()
	if write {
		s.stats.Writes++
		s.stats.BytesWritten += int64(len(p))
	} else {
		s.stats.Reads++
		s.stats.BytesRead += int64(len(p))
	}
	switch {
	case co.read && co.missed:
		s.stats.ReadCacheMisses++
	case co.read:
		s.stats.ReadCacheHits++
	}
	s.meta.Unlock()
	if write {
		s.eng.Kick()
	}
	return len(p), nil
}

// runKind is how request serves what lockRun locked.
type runKind uint8

const (
	oneSpan         runKind = iota // span, over one span or a fold of several (foldRun)
	fullStripeRun                  // writeRun
	wholeStripeRead                // readRun
)

// lockRun takes the stripe locks of what request serves next — one span, or
// a run of several — and returns how many spans that is and how they are
// served. A run holds each of its stripes' locks, taken in pool order, so it
// ends at the pool's wrap and two runs, RepairDisk's all-locks install and
// the single-lock paths never wait on each other in a cycle:
//
//   - a write of whole stripes on a layout with parity is a full-stripe run
//     (writeRun): its leading whole stripes while every member is whole, or
//     the first alone, when no member is missing from it;
//   - a read of several whole stripes that no fold takes is a read run
//     (readRun): its leading whole stripes while no member is under repair
//     (readable) — bar a stripe of one data unit on a layout with parity,
//     which is read per span, hedged where its member asks (readSpan);
//   - on a layout with neither parity nor checksum slots the spans that
//     continue the first are folded into it under its lock (foldRun) while
//     every member is whole.
//
// Each is decided under the locks, which the install waits for: a stripe's
// state says nothing of the next one's while a member's units are stale on
// some stripes only. A span served alone folds nothing and starts no run.
func (s *Store) lockRun(spans []layout.StripeSpan, write, alone bool, rp *readPlan) (n int, kind runKind) {
	folds := !alone && s.allPar == 0 && !s.opts.Checksums && len(spans) > 1 && continues(spans[0], spans[1])
	var runs bool
	switch {
	case alone || !spans[0].FullStripe(s.geo):
	case write:
		runs = s.allPar != 0 && s.whole()
	default:
		runs = !folds && len(spans) > 1 && spans[1].FullStripe(s.geo) && (len(spans[0].Extents) > 1 || s.allPar == 0)
	}
	n = 1
	for runs && n < len(spans) && spans[n].FullStripe(s.geo) && spans[n].Stripe%int64(len(s.locks)) != 0 {
		n++
	}
	for _, sp := range spans[:n] {
		s.stripeLock(sp.Stripe).Lock()
	}
	if n > 1 {
		keep := 1
		if write && s.whole() || !write && s.readable(spans[:n], rp) {
			keep = n
		}
		for _, sp := range spans[keep:n] {
			s.stripeLock(sp.Stripe).Unlock()
		}
		n = keep
	}
	switch {
	case write && s.allPar != 0 && spans[0].FullStripe(s.geo) && (n > 1 || s.stripeState(spans[0].Stripe).missing == 0):
		return n, fullStripeRun
	case n > 1:
		return n, wholeStripeRead
	case folds && s.whole():
		return foldRun(spans), oneSpan
	}
	return 1, oneSpan
}

// foldRun folds into spans[0], in place, every following span that
// continues it and returns how many spans the run took: one span whose
// extent runs past its stripe unit, filed under the first stripe. A
// span is the unit of parity protocol — the stripe lock keeps a unit and
// its parity (or its checksum slot) changing together — and request folds
// only where the layout keeps neither, so there a run is one lock trip
// (its first stripe's: every in-flight run still holds a lock of the pool,
// which is what RepairDisk's install drains), one stripeState and one
// device call instead of one per stripe. What is given up is mutual
// exclusion between overlapping requests beyond the first stripe, which no
// block device promises: the device call is the atom.
func foldRun(spans []layout.StripeSpan) int {
	n := 1
	for ; n < len(spans) && continues(spans[0], spans[n]); n++ {
		spans[0].Extents[0].Len += spans[n].Extents[0].Len
	}
	return n
}

// continues reports whether next is a single extent that continues run's
// single extent on the same member, on disk and in the caller's buffer.
func continues(run, next layout.StripeSpan) bool {
	r, x := run.Extents, next.Extents
	return len(r) == 1 && len(x) == 1 && x[0].Disk == r[0].Disk &&
		x[0].DiskOff == r[0].DiskOff+r[0].Len && x[0].ArrOff == r[0].ArrOff+r[0].Len
}

// premark makes the marks of a write that spans several stripes durable
// in one NVRAM store instead of one per stripe. It is a batching of
// stores only: each span still marks its stripe under the stripe lock
// (writeSpan), which costs nothing while the mark stands and restores it
// if a drain made the stripe redundant in between. It marks ahead the
// spans whose mark does not depend on when it is set: full stripes (their
// write clears it whoever set it) and partial spans whose stripe defers a
// parity (their mark stands after them) — bar those that verify old
// contents before they mark (preflights). A partial span that keeps every
// parity in sync clears only a mark it set itself, so it marks itself;
// and with a member missing the spans write their images back behind their own.
// A layout with no parity keeps no marks, and request does not call it.
func (s *Store) premark(spans []layout.StripeSpan) error {
	if !s.whole() {
		return nil
	}
	ahead := func(sp layout.StripeSpan) bool { // caller holds meta
		n := s.sync[sp.Stripe]
		return sp.FullStripe(s.geo) || (syncSet(n) != s.allPar && !s.preflights(sp, n))
	}
	for i := 0; i < len(spans); i++ {
		s.meta.Lock()
		j := i
		for j < len(spans) && ahead(spans[j]) {
			j++
		}
		s.meta.Unlock()
		if j > i {
			// Spans are consecutive stripes, so the run is a range.
			if err := s.eng.MarkRange(spans[i].Stripe, spans[j-1].Stripe+1); err != nil {
				return err
			}
			i = j
		}
	}
	return nil
}

// checkRange validates a client range.
func (s *Store) checkRange(off, length int64) error {
	s.meta.Lock()
	closed := s.closed
	s.meta.Unlock()
	if closed {
		return ErrClosed
	}
	// Compare without computing off+length, which overflows for off
	// near MaxInt64 and would wrap past the capacity check.
	if length < 0 || off < 0 || length > s.geo.Capacity() || off > s.geo.Capacity()-length {
		return fmt.Errorf("core: range off=%d length=%d outside capacity %d", off, length, s.geo.Capacity())
	}
	return nil
}
