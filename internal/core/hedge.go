package core

import (
	"context"
	"time"

	"afraid/internal/bufpool"
	"afraid/internal/layout"
	"afraid/internal/stripe"
)

// Hedged reads are a member's tail-latency defence, for a member that asks
// for them: one whose device has a HedgeDelay() method that returns a
// positive delay (a cluster node, whose volume derives it). A single-extent
// read of a fully redundant stripe that has not answered after the delay
// is raced against the reconstruction path — the same solve from the other
// members and the parities that serves degraded reads — and the first
// success wins. A browned-out member then costs one hedge delay, not its
// own latency, without being failed: the straggling primary keeps running
// to whatever deadline the member applies, and only that fails it.

// hedger is a member that asks for hedged reads.
type hedger interface {
	HedgeDelay() time.Duration
}

// hedgeDelay is the delay after which reads of member d are hedged; 0 for
// none.
func (s *Store) hedgeDelay(d int) time.Duration {
	if h, ok := s.devs[d].(hedger); ok {
		return h.HedgeDelay()
	}
	return 0
}

// hedgedRead reads one extent from its member, arming a hedge timer: if
// the member has not answered when it fires, the extent is also solved
// from the other members and the first success is copied to dst. Caller
// holds the stripe lock and has checked that the stripe is fully redundant.
//
// Each branch reads into its own pooled buffer — never dst — so a late
// loser cannot scribble over the winner's bytes, and a losing hedge keeps
// its stripe image until its last unit read is back. A primary that fails
// before the timer fires returns its error: the failure it reports
// re-routes the span, which is the span loop's job, not the hedge's.
func (s *Store) hedgedRead(ctx context.Context, dst []byte, st int64, e layout.Extent, delay time.Duration) error {
	type res struct {
		buf   []byte
		err   error
		hedge bool
	}
	ch := make(chan res, 2) // both branches always deliver; sends never block
	read := func(hedge bool) {
		buf := bufpool.Get(int(e.Len))
		var err error
		if hedge { // the straggler counts as missing: solve its bytes from the others
			var missing stripe.Set
			missing.Add(e.Disk, 1)
			im := s.image(ctx, st)
			im.Dst[e.DataIdx] = buf
			_, err = im.Solve(missing, s.allPar, e.UnitOff, e.UnitOff+e.Len)
			im.Release()
		} else {
			err = s.devRead(ctx, e.Disk, buf, e.DiskOff)
		}
		ch <- res{buf, err, hedge}
	}
	go read(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var failed error
	for inflight := 1; inflight > 0; {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				copy(dst, r.buf)
				bufpool.Put(r.buf)
				if inflight > 0 { // return the straggler's buffer whenever it answers
					go func() { bufpool.Put((<-ch).buf) }()
				}
				if r.hedge {
					s.meta.Lock()
					s.stats.HedgeWins++
					s.meta.Unlock()
				}
				return nil
			}
			bufpool.Put(r.buf)
			if !r.hedge && timer.Stop() {
				return r.err // failed fast, before the hedge fired
			}
			if failed == nil || !r.hedge {
				failed = r.err // the primary's error, if both fail
			}
		case <-timer.C:
			inflight++
			go read(true)
			s.meta.Lock()
			s.stats.HedgedReads++
			s.meta.Unlock()
		}
	}
	return failed
}
