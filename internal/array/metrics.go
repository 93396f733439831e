package array

import (
	"fmt"
	"strings"
	"time"

	"afraid/internal/disk"
)

// Metrics summarizes a completed simulation run.
type Metrics struct {
	Mode Mode

	Submitted uint64
	Completed uint64
	Reads     uint64
	Writes    uint64

	// MeanIOTime is the paper's headline metric: mean time from
	// device-driver entry to array completion, over all requests.
	MeanIOTime time.Duration
	MeanRead   time.Duration
	MeanWrite  time.Duration
	P95IOTime  time.Duration
	P99IOTime  time.Duration
	MaxIOTime  time.Duration

	// EndTime is the virtual time when the last request completed (or
	// the trace ended, whichever is later); the availability fractions
	// are measured against it.
	EndTime time.Duration

	// FracUnprotected is Tunprot/Ttotal: the fraction of the run during
	// which at least one stripe was unredundant.
	FracUnprotected float64
	// MeanParityLag is the time-averaged bytes of unredundant
	// non-parity data (the paper's parity lag).
	MeanParityLag float64
	// MaxParityLag is the peak parity lag observed.
	MaxParityLag float64

	RebuiltStripes   uint64
	ForcedStripes    uint64
	RebuildEpisodes  uint64
	EpisodesCutShort uint64
	Reverts          uint64
	RevertedTime     time.Duration
	DirtyAtEnd       int64

	ReadCacheHits, ReadCacheMisses uint64

	// Parity-logging baseline counters.
	LogStalls      uint64 // writes that waited for log space
	LogFlushes     uint64 // NVRAM buffer flushes to the log region
	Reintegrations uint64 // batch parity-reintegration passes

	// Degraded-mode study (Config.Fault).
	FailedAt           time.Duration // zero when no fault injected
	RebuildDoneAt      time.Duration // zero when no spare sweep finished
	DegradedReads      uint64        // extents served by reconstruction
	DegradedRequests   int64         // requests submitted while a member was down
	LostUnitsAtFailure int64         // dirty-stripe units on the failed disk

	Disks []disk.Stats
}

// Metrics finalizes accounting at the given end time (typically
// max(last completion, trace duration)) and returns the summary.
// Call after the engine has drained.
func (a *Array) Metrics(end time.Duration) Metrics {
	if a.submitted != a.completed {
		panic("array: Metrics called with requests still in flight")
	}
	now := a.eng.Now()
	if end < now {
		end = now
	}
	if a.reverted {
		a.revertedTime += end - a.revertedAt
		a.revertedAt = end
	}
	frac := 0.0
	if end > 0 {
		frac = float64(a.lag.NonZeroTimeAt(end)) / float64(end)
	}
	hits, misses := a.cache.ReadStats()
	m := Metrics{
		Mode:               a.cfg.Mode,
		Submitted:          a.submitted,
		Completed:          a.completed,
		Reads:              a.reads,
		Writes:             a.writes,
		MeanIOTime:         a.ioTime.Mean(),
		MeanRead:           a.readTime.Mean(),
		MeanWrite:          a.writeTime.Mean(),
		P95IOTime:          a.ioTime.Quantile(0.95),
		P99IOTime:          a.ioTime.Quantile(0.99),
		MaxIOTime:          a.ioTime.Max(),
		EndTime:            end,
		FracUnprotected:    frac,
		MeanParityLag:      a.lag.Average(end),
		MaxParityLag:       a.maxLag,
		RebuiltStripes:     a.rebuilt,
		ForcedStripes:      a.forcedBuilt,
		RebuildEpisodes:    a.episodes,
		EpisodesCutShort:   a.interrupted,
		Reverts:            a.reverts,
		RevertedTime:       a.revertedTime,
		DirtyAtEnd:         a.marks.Count(),
		ReadCacheHits:      hits,
		ReadCacheMisses:    misses,
		LogStalls:          a.stalls,
		LogFlushes:         a.logFlushes,
		Reintegrations:     a.reintegrations,
		FailedAt:           a.deg.failedAt,
		RebuildDoneAt:      a.deg.doneAt,
		DegradedReads:      a.deg.degReads,
		DegradedRequests:   a.deg.degLatency,
		LostUnitsAtFailure: a.deg.lostUnits,
	}
	for _, d := range a.disks {
		m.Disks = append(m.Disks, d.Stats())
	}
	return m
}

// String renders a compact multi-line summary of the run.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: %d requests (%d reads, %d writes), mean I/O %v",
		m.Mode, m.Completed, m.Reads, m.Writes, m.MeanIOTime.Round(time.Microsecond))
	if par, sync := m.Mode.Parities(); sync < par {
		fmt.Fprintf(&b, ", unprotected %.1f%%, parity lag %.1f KB",
			100*m.FracUnprotected, m.MeanParityLag/1e3)
	}
	if m.Mode == PARITYLOG {
		fmt.Fprintf(&b, ", %d log flushes, %d reintegrations, %d stalls",
			m.LogFlushes, m.Reintegrations, m.LogStalls)
	}
	return b.String()
}
