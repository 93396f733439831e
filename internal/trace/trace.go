// Package trace defines the I/O trace model driving the simulator, a
// text codec for traces, and synthetic workload generators that stand in
// for the proprietary HP and IBM traces used in the paper (hplajw,
// snake, cello-usr, cello-news, netware, ATT, AS400-1..4).
//
// The generators are open-loop ON/OFF burst processes: bursts of
// closely-spaced requests separated by heavy-tailed idle periods, the
// structure [Ruemmler93] documents for these systems and the property
// AFRAID exploits. Each named workload is a parameterization chosen to
// match the published qualitative character of the original trace; see
// DESIGN.md for the substitution rationale.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"

	"afraid/internal/sim"
)

// Record is a single trace I/O.
type Record struct {
	Time   time.Duration // arrival time relative to trace start
	Write  bool
	Offset int64 // byte address in the array's client space
	Length int64 // bytes
}

// Trace is a time-ordered sequence of records.
type Trace struct {
	Name    string
	Records []Record
}

// Duration returns the arrival time of the last record.
func (t *Trace) Duration() time.Duration {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].Time
}

// Stats summarizes a trace.
type Stats struct {
	Requests      int
	Reads, Writes int
	BytesRead     int64
	BytesWritten  int64
	Duration      time.Duration
	MeanSize      int64
	WriteFrac     float64
	// MeanRate is requests per second over the trace duration.
	MeanRate float64
}

// Stats computes summary statistics.
func (t *Trace) Stats() Stats {
	var s Stats
	s.Requests = len(t.Records)
	var bytes int64
	for _, r := range t.Records {
		bytes += r.Length
		if r.Write {
			s.Writes++
			s.BytesWritten += r.Length
		} else {
			s.Reads++
			s.BytesRead += r.Length
		}
	}
	s.Duration = t.Duration()
	if s.Requests > 0 {
		s.MeanSize = bytes / int64(s.Requests)
		s.WriteFrac = float64(s.Writes) / float64(s.Requests)
	}
	if s.Duration > 0 {
		s.MeanRate = float64(s.Requests) / s.Duration.Seconds()
	}
	return s
}

// Write encodes the trace in the text format:
//
//	# afraid-trace v1 name=<name>
//	<time_us> <R|W> <offset> <length>
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# afraid-trace v1 name=%s\n", t.Name); err != nil {
		return err
	}
	for _, r := range t.Records {
		op := byte('R')
		if r.Write {
			op = 'W'
		}
		if _, err := fmt.Fprintf(bw, "%d %c %d %d\n", r.Time.Microseconds(), op, r.Offset, r.Length); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a trace from the text format.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if len(text) == 0 {
			continue
		}
		if text[0] == '#' {
			var name string
			if n, _ := fmt.Sscanf(text, "# afraid-trace v1 name=%s", &name); n == 1 {
				t.Name = name
			}
			continue
		}
		var us, off, length int64
		var op string
		if n, err := fmt.Sscanf(text, "%d %s %d %d", &us, &op, &off, &length); n != 4 || err != nil {
			return nil, fmt.Errorf("trace: line %d: malformed record %q", line, text)
		}
		var write bool
		switch op {
		case "R", "r":
			write = false
		case "W", "w":
			write = true
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", line, op)
		}
		t.Records = append(t.Records, Record{
			Time:   time.Duration(us) * time.Microsecond,
			Write:  write,
			Offset: off,
			Length: length,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sort.SliceIsSorted(t.Records, func(i, j int) bool { return t.Records[i].Time < t.Records[j].Time }) {
		return nil, fmt.Errorf("trace: records not time-ordered")
	}
	return t, nil
}

// SizeProb is one entry of a discrete request-size distribution.
type SizeProb struct {
	Bytes int64
	Prob  float64
}

// Params parameterizes a synthetic ON/OFF burst workload.
type Params struct {
	Name string
	// Duration is the length of trace to generate.
	Duration time.Duration
	// MeanBurst is the mean number of requests per burst (geometric).
	MeanBurst float64
	// IntraGap is the mean inter-arrival time within a burst
	// (exponential).
	IntraGap time.Duration
	// IdleMin and IdleAlpha shape the Pareto inter-burst idle period.
	IdleMin   time.Duration
	IdleAlpha float64
	// WriteFrac is the probability a request is a write.
	WriteFrac float64
	// Sizes is the request-size distribution (probabilities sum to 1).
	Sizes []SizeProb
	// SeqProb is the probability a request continues sequentially from
	// the previous one in the same burst.
	SeqProb float64
	// FootprintFrac is the fraction of capacity the workload touches.
	FootprintFrac float64
	// HotSkew is the Zipf skew over footprint blocks (0 = uniform).
	HotSkew float64
	// Align is the address alignment (typically the FS block size).
	Align int64
	// SessionBursts, when positive, adds a second timescale of
	// burstiness: after a mean of SessionBursts bursts, a long
	// inter-session gap (Pareto with SessionGapMin/SessionGapAlpha) is
	// inserted. Real day-long traces show exactly this multi-scale
	// structure [Ruemmler93] — think editor saves within a working
	// session, sessions separated by meetings and nights.
	SessionBursts   float64
	SessionGapMin   time.Duration
	SessionGapAlpha float64
}

// Validate reports whether the parameters are self-consistent.
func (p Params) Validate() error {
	if p.Duration <= 0 {
		return fmt.Errorf("trace: %s: non-positive duration", p.Name)
	}
	if p.MeanBurst < 1 {
		return fmt.Errorf("trace: %s: mean burst %g must be >= 1", p.Name, p.MeanBurst)
	}
	if p.IntraGap < 0 || p.IdleMin <= 0 || p.IdleAlpha <= 0 {
		return fmt.Errorf("trace: %s: invalid gap parameters", p.Name)
	}
	if p.WriteFrac < 0 || p.WriteFrac > 1 || p.SeqProb < 0 || p.SeqProb > 1 {
		return fmt.Errorf("trace: %s: probabilities out of range", p.Name)
	}
	if len(p.Sizes) == 0 {
		return fmt.Errorf("trace: %s: no size distribution", p.Name)
	}
	total := 0.0
	for _, s := range p.Sizes {
		if s.Bytes <= 0 || s.Prob < 0 {
			return fmt.Errorf("trace: %s: bad size entry %+v", p.Name, s)
		}
		total += s.Prob
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("trace: %s: size probabilities sum to %g", p.Name, total)
	}
	if p.FootprintFrac <= 0 || p.FootprintFrac > 1 {
		return fmt.Errorf("trace: %s: footprint fraction %g out of (0,1]", p.Name, p.FootprintFrac)
	}
	if p.Align <= 0 {
		return fmt.Errorf("trace: %s: alignment %d must be positive", p.Name, p.Align)
	}
	if p.SessionBursts < 0 {
		return fmt.Errorf("trace: %s: negative session burst count", p.Name)
	}
	if p.SessionBursts > 0 && (p.SessionGapMin <= 0 || p.SessionGapAlpha <= 0) {
		return fmt.Errorf("trace: %s: sessions require gap parameters", p.Name)
	}
	return nil
}

// Generate synthesizes a trace against an array of the given client
// capacity using the provided RNG. Identical seeds yield identical
// traces.
func Generate(p Params, capacity int64, rng *sim.RNG) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if capacity <= p.Align {
		return nil, fmt.Errorf("trace: capacity %d too small", capacity)
	}
	footprint := int64(float64(capacity) * p.FootprintFrac)
	footprint -= footprint % p.Align
	if footprint < p.Align*16 {
		footprint = p.Align * 16
	}
	if footprint > capacity {
		footprint = capacity - capacity%p.Align
	}
	blocks := footprint / p.Align

	var hot *sim.Zipf
	if p.HotSkew > 0 {
		// Cap the Zipf table size; map table entries onto block ranges.
		n := int(blocks)
		if n > 4096 {
			n = 4096
		}
		hot = sim.NewZipf(rng, n, p.HotSkew)
	}

	maxSize := int64(0)
	for _, s := range p.Sizes {
		if s.Bytes > maxSize {
			maxSize = s.Bytes
		}
	}

	pickSize := func() int64 {
		u := rng.Float64()
		acc := 0.0
		for _, s := range p.Sizes {
			acc += s.Prob
			if u < acc {
				return s.Bytes
			}
		}
		return p.Sizes[len(p.Sizes)-1].Bytes
	}
	pickOffset := func(size int64) int64 {
		var blk int64
		if hot != nil {
			zone := int64(hot.Next())
			tableN := int64(4096)
			if blocks < tableN {
				tableN = blocks
			}
			// Spread each zone over blocks/tableN consecutive blocks.
			span := blocks / tableN
			if span < 1 {
				span = 1
			}
			blk = zone*span + rng.Int63n(span)
		} else {
			blk = rng.Int63n(blocks)
		}
		off := blk * p.Align
		if off+size > footprint {
			off = footprint - size
			off -= off % p.Align
			if off < 0 {
				off = 0
			}
		}
		return off
	}

	t := &Trace{Name: p.Name}
	now := rng.ExpDuration(p.IdleMin) // random start offset so traces don't all begin at 0
	var prevEnd int64 = -1
	for now < p.Duration {
		burst := rng.Geometric(p.MeanBurst)
		for i := 0; i < burst && now < p.Duration; i++ {
			size := pickSize()
			var off int64
			if prevEnd >= 0 && rng.Bool(p.SeqProb) && prevEnd+size <= footprint {
				off = prevEnd
			} else {
				off = pickOffset(size)
			}
			prevEnd = off + size
			t.Records = append(t.Records, Record{
				Time:   now,
				Write:  rng.Bool(p.WriteFrac),
				Offset: off,
				Length: size,
			})
			now += rng.ExpDuration(p.IntraGap)
		}
		prevEnd = -1
		now += rng.ParetoDuration(p.IdleMin, p.IdleAlpha)
		if p.SessionBursts > 0 && rng.Bool(1/p.SessionBursts) {
			now += rng.ParetoDuration(p.SessionGapMin, p.SessionGapAlpha)
		}
	}
	return t, nil
}
