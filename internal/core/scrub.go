package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxInlineScrub bounds how many stripes a single write is ever held
// hostage rebuilding. The valve still applies back-pressure — a flood
// of writers each pays for a few rebuilds — but one victim request can
// no longer stall indefinitely while its peers keep re-dirtying
// stripes; the remainder of the backlog is handed to scrubLoop.
const maxInlineScrub = 4

// kickScrub nudges the scrubber when the dirty-threshold policy demands
// immediate rebuilding: it does a small, bounded synchronous rebuild
// pass inline when the backlog is far over threshold, then wakes
// scrubLoop to drain the rest in the background.
func (s *Store) kickScrub() {
	th := s.opts.DirtyThreshold
	if th <= 0 {
		return
	}
	s.meta.Lock()
	over := s.marks.Count()-int64(len(s.quarantine)) > 2*int64(th)
	s.meta.Unlock()
	if !over {
		return
	}
	// Rebuild a bounded batch in the caller's context, like the paper's
	// policy of starting parity updates under load.
	for i := 0; i < maxInlineScrub; i++ {
		s.meta.Lock()
		n := s.marks.Count() - int64(len(s.quarantine))
		s.meta.Unlock()
		if n <= int64(th) {
			return
		}
		built, _ := s.scrubOne(true, nil)
		if !built {
			return
		}
		s.meta.Lock()
		s.stats.InlineScrubs++
		s.meta.Unlock()
	}
	// Still over threshold: hand the backlog to scrubLoop without
	// blocking (the channel holds one pending kick; more add nothing).
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// scrubLoop is the background parity rebuilder: it waits for the store
// to be idle for ScrubIdle, for the dirty backlog to exceed the
// threshold, or for a kick from the write-path pressure valve, then
// runs a scrub episode.
func (s *Store) scrubLoop() {
	defer s.wg.Done()
	poll := s.opts.ScrubIdle / 4
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		case <-s.kick:
		}
		s.scrubPass()
	}
}

// scrubPass runs one scrub episode: rebuild stripes until the backlog
// is gone, the idle window closes, or foreground I/O preempts an idle
// rebuild. Episode starts and lengths feed the scrub accounting.
func (s *Store) scrubPass() {
	var (
		started time.Time
		built   int
	)
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		s.meta.Lock()
		// Quarantined stripes are dirty but undrainable; they must not
		// keep an episode spinning.
		dirty := s.marks.Count() - int64(len(s.quarantine))
		idleFor := time.Since(s.lastIO)
		gen := s.scrubGen
		s.meta.Unlock()
		if dirty == 0 {
			break
		}
		forced := s.opts.DirtyThreshold > 0 && dirty > int64(s.opts.DirtyThreshold)
		if !forced && idleFor < s.opts.ScrubIdle {
			break
		}
		// An idle rebuild must not consume a mark freshened by a write
		// landing after the sample above: scrubOne re-checks gen under
		// the stripe lock. Forced rebuilds pass nil — they must make
		// progress even under sustained writes, or the backlog (and
		// Flush behind it) could be starved forever.
		genp := &gen
		if forced {
			genp = nil
		}
		if built == 0 {
			started = time.Now()
			s.meta.Lock()
			if forced {
				s.stats.ForcedEpisodes++
			} else {
				s.stats.IdleEpisodes++
			}
			s.meta.Unlock()
		}
		ok, err := s.scrubOne(forced, genp)
		if err != nil || !ok {
			break
		}
		built++
	}
	if built > 0 {
		s.ob.scrubEpisode.Observe(time.Since(started))
	}
}

// scrubOne rebuilds the parity of one dirty stripe: read all data
// units, xor, write parity, clear the mark. It reports whether a
// stripe was rebuilt. When gen is non-nil (an idle-path rebuild), the
// stripe is abandoned if foreground I/O has bumped the scrub
// generation since the caller sampled *gen — otherwise a write landing
// between the idle check and the rebuild would have its fresh mark
// consumed as "idle" scrubbing, competing with the very I/O the idle
// policy exists to yield to.
func (s *Store) scrubOne(forced bool, gen *uint64) (bool, error) {
	s.meta.Lock()
	if s.failed.n > 0 {
		// Cannot rebuild parity with a missing disk; RepairDisk will.
		s.meta.Unlock()
		return false, nil
	}
	stripe, ok := s.nextUnclaimed()
	s.meta.Unlock()
	if !ok {
		return false, nil
	}
	defer func() {
		s.meta.Lock()
		delete(s.claimed, stripe)
		s.meta.Unlock()
	}()

	start := time.Now()
	lk := s.stripeLock(stripe)
	lk.Lock()
	defer lk.Unlock()

	s.meta.Lock()
	if gen != nil && s.scrubGen != *gen {
		s.stats.ScrubPreempts++
		s.meta.Unlock()
		return false, nil
	}
	stillDirty := s.marks.IsMarked(stripe)
	s.meta.Unlock()
	if !stillDirty {
		return true, nil // raced with a degraded write; count as progress
	}

	var rerr error
	for tries := 0; ; tries++ {
		rerr = s.rebuildParity(stripe)
		// A unit that fails checksum verification mid-rebuild is repaired
		// from redundancy and the rebuild retried; rebuilding parity over
		// the corrupt bytes would bless them forever.
		if rerr == nil || tries >= s.spanRetryBudget() {
			break
		}
		var retry bool
		if retry, rerr = s.absorbMismatch(rerr); !retry {
			break
		}
	}
	if rerr != nil {
		if s.absorbFailure(rerr) {
			// A member failed mid-rebuild: the store is now degraded and
			// scrubbing pauses until RepairDisk (the check at the top of
			// this function). The stripe keeps its mark.
			return false, nil
		}
		if errors.Is(rerr, ErrDataLoss) {
			// Detected corruption this stripe's stale parity cannot undo:
			// quarantine it (kept dirty, skipped by the drains, reads
			// report loss) and count the claim as progress so callers
			// move on to other stripes.
			s.quarantineStripe(stripe)
			return true, nil
		}
		return false, rerr
	}

	s.meta.Lock()
	s.marks.Unmark(stripe)
	s.dropQuarantine(stripe)
	s.stats.ScrubbedStripes++
	if forced {
		s.stats.ForcedScrubs++
	}
	err := s.commitMarks()
	s.meta.Unlock()
	s.ob.scrubStripe.Observe(time.Since(start))
	return true, err
}

// nextUnclaimed picks the first dirty stripe no other drain worker is
// already rebuilding and claims it. The claim keeps concurrent Flush
// workers off each other's stripes — without it, every worker would
// take marks.Next(0) and serialize on the same stripe lock. Caller
// holds meta; the claimer must delete its claim when done.
//
// Bitmap.Next wraps past the end of the array, so a claimed stripe
// would be returned again forever once it is the only mark left; the
// st < from check detects the wrap and reports "nothing unclaimed"
// instead of spinning with meta held.
func (s *Store) nextUnclaimed() (int64, bool) {
	from := int64(0)
	for {
		st, ok := s.marks.Next(from)
		if !ok || st < from {
			return 0, false
		}
		if !s.claimed[st] && !s.quarantine[st] {
			s.claimed[st] = true
			return st, true
		}
		from = st + 1
	}
}

// Flush synchronously rebuilds parity for every dirty stripe — the
// whole-array parity point. After a successful Flush the store is fully
// redundant.
func (s *Store) Flush() error {
	return s.FlushContext(context.Background())
}

// FlushContext is Flush with cancellation, checked between stripes.
// Stripes scrubbed before cancellation stay redundant. With more than
// one scrub worker configured, dirty stripes are drained concurrently:
// each worker claims a distinct stripe (see nextUnclaimed) and rebuilds
// it under its stripe lock, so the per-disk reads of several rebuilds
// overlap.
func (s *Store) FlushContext(ctx context.Context) error {
	if s.opts.Mode == Raid0 {
		return nil
	}
	workers := s.scrubWorkers()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.meta.Lock()
		if s.closed {
			s.meta.Unlock()
			return ErrClosed
		}
		failed := s.failed
		n := s.marks.Count()
		q := int64(len(s.quarantine))
		s.meta.Unlock()
		if n-q <= 0 {
			if q > 0 {
				// Every remaining mark is a quarantined stripe: rebuilding
				// its parity would seal detected corruption in. The store
				// cannot be made fully redundant; say so.
				return s.quarantineError()
			}
			return nil
		}
		if failed.n > 0 {
			return fmt.Errorf("core: cannot flush with disk %d failed: %w", failed.list()[failed.n-1], ErrTooManyFailures)
		}
		// gen is nil: Flush must drain regardless of foreground I/O, or
		// concurrent writers could starve it forever.
		var built int64
		if workers <= 1 || n == 1 {
			ok, err := s.scrubOne(false, nil)
			if err != nil {
				return err
			}
			if ok {
				built = 1
			}
		} else {
			var err error
			built, err = s.drainParallel(ctx, workers)
			if err != nil {
				return err
			}
		}
		if built == 0 {
			// Every remaining mark is claimed by another drainer (the
			// background scrubber, a parity point, or an inline scrub).
			// Yield briefly instead of spinning until they release.
			time.Sleep(100 * time.Microsecond)
		}
		// Loop: stripes re-dirtied by concurrent writers (or abandoned
		// when another claimer raced) get another round; the n == 0
		// check above is the only exit with a clean store.
	}
}

// drainParallel runs one round of concurrent scrubOne workers until no
// unclaimed dirty stripe remains or a worker fails; the first error
// wins and stops the others at their next claim attempt. It reports
// how many stripes the round rebuilt so the caller can tell progress
// from "everything left is claimed elsewhere".
func (s *Store) drainParallel(ctx context.Context, workers int) (int64, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		built atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				stop := first != nil
				mu.Unlock()
				if stop {
					return
				}
				ok, err := s.scrubOne(false, nil)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				if !ok {
					return
				}
				built.Add(1)
			}
		}()
	}
	wg.Wait()
	return built.Load(), first
}

// ParityPoint makes the stripes covering [off, off+length) redundant
// now — the §5 "commit" operation, analogous to the paritypoints of
// Cormen & Kotz. It returns once their parity is consistent.
func (s *Store) ParityPoint(off, length int64) error {
	return s.ParityPointContext(context.Background(), off, length)
}

// ParityPointContext is ParityPoint with cancellation, checked between
// stripes. Multi-stripe ranges are drained by a pool of scrub workers
// striding an atomic cursor; a single-stripe range (or ScrubWorkers=1)
// runs inline on the caller's goroutine, so the common "commit this
// record" case spawns nothing and allocates nothing.
func (s *Store) ParityPointContext(ctx context.Context, off, length int64) error {
	if err := s.checkRange(off, length); err != nil {
		return err
	}
	if length == 0 || s.opts.Mode == Raid0 {
		return nil
	}
	first := off / s.geo.StripeDataBytes()
	last := (off + length - 1) / s.geo.StripeDataBytes()
	workers := s.scrubWorkers()
	if span := last - first + 1; span < int64(workers) {
		workers = int(span)
	}
	if workers <= 1 {
		for stripe := first; stripe <= last; stripe++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := s.parityPointStripe(stripe); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		cur      atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	cur.Store(first)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				stripe := cur.Add(1) - 1
				if stripe > last {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := s.parityPointStripe(stripe); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// parityPointStripe makes one stripe redundant if it is dirty. The
// dirty check is repeated under the stripe lock so a rebuild that
// raced with the scrubber (or another parity-point worker) is skipped
// instead of done twice.
func (s *Store) parityPointStripe(stripe int64) error {
	s.meta.Lock()
	dirty := s.marks.IsMarked(stripe)
	quarantined := s.quarantine[stripe]
	failed := s.failed
	s.meta.Unlock()
	if !dirty {
		return nil
	}
	if quarantined {
		return fmt.Errorf("core: stripe %d held dirty by unrecoverable checksum corruption: %w", stripe, ErrDataLoss)
	}
	if failed.n > 0 {
		return fmt.Errorf("core: cannot make stripe %d redundant with disk %d failed: %w", stripe, failed.list()[failed.n-1], ErrTooManyFailures)
	}
	lk := s.stripeLock(stripe)
	lk.Lock()
	defer lk.Unlock()
	s.meta.Lock()
	dirty = s.marks.IsMarked(stripe)
	s.meta.Unlock()
	if !dirty {
		return nil
	}
	var err error
	for tries := 0; ; tries++ {
		err = s.rebuildParity(stripe)
		if err == nil || tries >= s.spanRetryBudget() {
			break
		}
		var retry bool
		if retry, err = s.absorbMismatch(err); !retry {
			break
		}
	}
	if err != nil {
		if errors.Is(err, ErrDataLoss) {
			s.quarantineStripe(stripe)
		}
		return err
	}
	s.meta.Lock()
	s.marks.Unmark(stripe)
	s.stats.ScrubbedStripes++
	err = s.commitMarks()
	s.meta.Unlock()
	return err
}

// CheckParity verifies every stripe's parity against its data and
// returns the stripes that are inconsistent, in ascending order. On a
// healthy AFRAID store the result is exactly the set of dirty stripes;
// after Flush it is empty. RAID 0 stores trivially verify. Stripes are
// checked by a pool of scrub workers, each with its own pooled arena.
func (s *Store) CheckParity() ([]int64, error) {
	if s.opts.Mode == Raid0 {
		return nil, nil
	}
	stripes := s.geo.Stripes()
	workers := s.scrubWorkers()
	if int64(workers) > stripes {
		workers = int(stripes)
	}
	var (
		cur      atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		bad      []int64
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sb := s.getStripeBuf()
			defer s.putStripeBuf(sb)
			for {
				stripe := cur.Add(1) - 1
				if stripe >= stripes {
					return
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				var consistent bool
				var err error
				for tries := 0; ; tries++ {
					consistent, err = s.checkStripe(sb, stripe)
					if err == nil || tries >= s.spanRetryBudget() {
						break
					}
					// checkStripe drops the stripe lock before returning, so
					// the repair re-acquires it.
					var retry bool
					if retry, err = s.absorbMismatchIn(err); !retry {
						break
					}
				}
				if err != nil && errors.Is(err, ErrDataLoss) {
					// Corruption beyond redundancy: the stripe is by
					// definition inconsistent. Report it in the result
					// rather than failing the whole audit.
					consistent, err = false, nil
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if !consistent {
					mu.Lock()
					bad = append(bad, stripe)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	return bad, nil
}
