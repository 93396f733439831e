package tier

import (
	"sync/atomic"

	"afraid/internal/obs"
)

// tierObs is the tier's observability kit, mounted by cmd/afraidd as
// the "tier" section of /debug/histograms.
type tierObs struct {
	reg        *obs.Registry
	frontRead  *obs.Histogram // front-tier read service time
	frontWrite *obs.Histogram // mirrored front write (both copies)
	promote    *obs.Histogram // one extent promotion (compose + install)
	demote     *obs.Histogram // one extent demotion (front read + back write)
	migrate    *obs.Histogram // one migration episode (a run of demotes)
}

func newTierObs() *tierObs {
	r := obs.NewRegistry()
	return &tierObs{
		reg:        r,
		frontRead:  r.Histogram("front_read"),
		frontWrite: r.Histogram("front_write"),
		promote:    r.Histogram("promote"),
		demote:     r.Histogram("demote"),
		migrate:    r.Histogram("migrate_episode"),
	}
}

// Obs returns the tier's observability registry.
func (s *Store) Obs() *obs.Registry { return s.ob.reg }

// stats holds the tier's lock-free counters.
type stats struct {
	reads, writes           atomic.Uint64
	bytesRead, bytesWritten atomic.Int64
	frontReadHits           atomic.Uint64
	frontReadMisses         atomic.Uint64
	frontWriteHits          atomic.Uint64
	promotes, demotes       atomic.Uint64
	evictions               atomic.Uint64
	promotedBytes           atomic.Int64
	demotedBytes            atomic.Int64
	writeArounds            atomic.Uint64
	mirrorFailovers         atomic.Uint64
	degradedWrites          atomic.Uint64
	resilvered              atomic.Uint64
	mapRecovered            atomic.Bool
}

// TierStats is a point-in-time snapshot of the hybrid's behaviour.
type TierStats struct {
	Reads, Writes           uint64
	BytesRead, BytesWritten int64
	FrontReadHits           uint64 // reads served by the mirrors
	FrontReadMisses         uint64 // reads served by the back tier
	FrontWriteHits          uint64 // writes absorbed by a resident extent
	Promotes, Demotes       uint64 // extent migrations up / down
	Evictions               uint64 // clean slots reclaimed for promotes
	PromotedBytes           int64
	DemotedBytes            int64
	WriteArounds            uint64 // writes routed straight to the back tier
	MirrorFailovers         uint64 // reads failed over to the other copy
	DegradedWrites          uint64 // front writes that landed on one copy
	Resilvered              uint64 // extents re-mirrored at open
	MapRecovered            bool   // residency rebuilt from slot tags
	ResidentExtents         int64
	DirtyExtents            int64
	ResidentBytes           int64
	DirtyBytes              int64
}

// TierStats snapshots the tier counters.
func (s *Store) TierStats() TierStats {
	t := TierStats{
		Reads:           s.st.reads.Load(),
		Writes:          s.st.writes.Load(),
		BytesRead:       s.st.bytesRead.Load(),
		BytesWritten:    s.st.bytesWritten.Load(),
		FrontReadHits:   s.st.frontReadHits.Load(),
		FrontReadMisses: s.st.frontReadMisses.Load(),
		FrontWriteHits:  s.st.frontWriteHits.Load(),
		Promotes:        s.st.promotes.Load(),
		Demotes:         s.st.demotes.Load(),
		Evictions:       s.st.evictions.Load(),
		PromotedBytes:   s.st.promotedBytes.Load(),
		DemotedBytes:    s.st.demotedBytes.Load(),
		WriteArounds:    s.st.writeArounds.Load(),
		MirrorFailovers: s.st.mirrorFailovers.Load(),
		DegradedWrites:  s.st.degradedWrites.Load(),
		Resilvered:      s.st.resilvered.Load(),
		MapRecovered:    s.st.mapRecovered.Load(),
	}
	s.meta.Lock()
	t.DirtyBytes = s.dirtyBytes
	t.DirtyExtents = s.dirty.Count()
	for _, ext := range s.m.table {
		if ext < 0 {
			continue
		}
		if sl, ok := s.m.byExtent[ext]; ok && s.m.table[sl] == ext {
			t.ResidentExtents++
			t.ResidentBytes += s.extentLen(ext)
		}
	}
	s.meta.Unlock()
	return t
}

// StatMap returns the back tier's snapshot plus the tier's own under
// "tier." keys: every TierStats field. It is the stats
// method of server.Backend.
func (s *Store) StatMap() map[string]int64 {
	m := s.back.StatMap()
	obs.Flatten(m, "tier.", s.TierStats())
	return m
}
