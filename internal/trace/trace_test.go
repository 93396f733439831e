package trace

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"afraid/internal/sim"
)

const testCapacity = 8 << 30 // 8 GB client space (5x2GB RAID 5)

func genNamed(t *testing.T, name string, d time.Duration, seed uint64) *Trace {
	t.Helper()
	p, err := Lookup(name, d)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(p, testCapacity, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenerateAllCatalogWorkloads(t *testing.T) {
	for _, name := range Names() {
		tr := genNamed(t, name, 30*time.Second, 1)
		if len(tr.Records) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		if err := validate(tr, testCapacity); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genNamed(t, "cello-usr", 20*time.Second, 42)
	b := genNamed(t, "cello-usr", 20*time.Second, 42)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c := genNamed(t, "cello-usr", 20*time.Second, 43)
	if len(a.Records) == len(c.Records) {
		same := true
		for i := range a.Records {
			if a.Records[i] != c.Records[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestWorkloadCharacterOrdering(t *testing.T) {
	// The catalog must preserve the paper's qualitative ordering:
	// hplajw is the quietest, att/netware the busiest and most
	// write-heavy.
	d := 60 * time.Second
	rates := map[string]float64{}
	writeFracs := map[string]float64{}
	for _, name := range Names() {
		s := genNamed(t, name, d, 7).Stats()
		rates[name] = s.MeanRate
		writeFracs[name] = s.WriteFrac
	}
	if !(rates["hplajw"] < rates["cello-usr"] && rates["cello-usr"] < rates["att"]) {
		t.Fatalf("rate ordering violated: %v", rates)
	}
	if !(rates["snake"] < rates["netware"]) {
		t.Fatalf("snake %v should be quieter than netware %v", rates["snake"], rates["netware"])
	}
	if writeFracs["att"] < 0.8 {
		t.Fatalf("att write fraction %v, want >= 0.8", writeFracs["att"])
	}
	if writeFracs["snake"] > 0.5 {
		t.Fatalf("snake write fraction %v, want < 0.5", writeFracs["snake"])
	}
}

func TestBurstyWorkloadsHaveLongIdles(t *testing.T) {
	// hplajw must spend most of its time in long idle gaps; att must
	// spend almost none.
	longIdleFrac := func(tr *Trace, min time.Duration) float64 {
		var long time.Duration
		for i := 1; i < len(tr.Records); i++ {
			if gap := tr.Records[i].Time - tr.Records[i-1].Time; gap > min {
				long += gap
			}
		}
		d := tr.Duration()
		if d == 0 {
			return 0
		}
		return float64(long) / float64(d)
	}
	quiet := genNamed(t, "hplajw", 2*time.Minute, 3)
	busy := genNamed(t, "att", 2*time.Minute, 3)
	qf := longIdleFrac(quiet, 2*time.Second)
	bf := longIdleFrac(busy, 2*time.Second)
	if qf < 0.5 {
		t.Fatalf("hplajw spends only %.2f of its time in >2s gaps, want mostly idle", qf)
	}
	if bf > qf/2 {
		t.Fatalf("att long-idle fraction %.2f not clearly below hplajw %.2f", bf, qf)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := genNamed(t, "snake", 10*time.Second, 5)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name {
		t.Fatalf("name %q, want %q", got.Name, tr.Name)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("count %d, want %d", len(got.Records), len(tr.Records))
	}
	for i := range tr.Records {
		a, b := tr.Records[i], got.Records[i]
		// Times are stored in whole microseconds.
		if a.Time.Truncate(time.Microsecond) != b.Time || a.Write != b.Write ||
			a.Offset != b.Offset || a.Length != b.Length {
			t.Fatalf("record %d: %+v != %+v", i, a, b)
		}
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	cases := []string{
		"12 X 0 4096\n",
		"not a record\n",
		"12 R 0\n",
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewBufferString(c)); err == nil {
			t.Fatalf("malformed input %q accepted", c)
		}
	}
}

func TestCodecRejectsUnordered(t *testing.T) {
	in := "100 R 0 4096\n50 W 4096 4096\n"
	if _, err := Read(bytes.NewBufferString(in)); err == nil {
		t.Fatal("unordered trace accepted")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	tr := &Trace{Name: "x", Records: []Record{{Time: 0, Offset: 0, Length: 4096}}}
	if err := validate(tr, 1<<20); err != nil {
		t.Fatal(err)
	}
	tr.Records = append(tr.Records, Record{Time: time.Second, Offset: 1<<20 - 1, Length: 4096})
	if err := validate(tr, 1<<20); err == nil {
		t.Fatal("out-of-bounds record accepted")
	}
	tr2 := &Trace{Records: []Record{{Time: 0, Offset: 0, Length: 0}}}
	if err := validate(tr2, 1<<20); err == nil {
		t.Fatal("zero-length record accepted")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nosuch", 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestParamsValidation(t *testing.T) {
	p, _ := Lookup("att", 0)
	bad := p
	bad.Sizes = []SizeProb{{4096, 0.5}} // doesn't sum to 1
	if err := bad.Validate(); err == nil {
		t.Fatal("bad size distribution accepted")
	}
	bad = p
	bad.MeanBurst = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero burst accepted")
	}
	bad = p
	bad.FootprintFrac = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("footprint > 1 accepted")
	}
}

func TestGeneratedRecordsInBounds(t *testing.T) {
	prop := func(seed uint64) bool {
		p, _ := Lookup("as400-2", 10*time.Second)
		tr, err := Generate(p, testCapacity, sim.NewRNG(seed))
		if err != nil {
			return false
		}
		return validate(tr, testCapacity) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsComputation(t *testing.T) {
	tr := &Trace{Records: []Record{
		{Time: 0, Write: false, Offset: 0, Length: 4096},
		{Time: time.Second, Write: true, Offset: 8192, Length: 8192},
	}}
	s := tr.Stats()
	if s.Requests != 2 || s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesRead != 4096 || s.BytesWritten != 8192 {
		t.Fatalf("bytes = %d/%d", s.BytesRead, s.BytesWritten)
	}
	if s.MeanSize != 6144 || s.WriteFrac != 0.5 {
		t.Fatalf("mean size %d, write frac %g", s.MeanSize, s.WriteFrac)
	}
	if s.MeanRate != 2.0 {
		t.Fatalf("rate = %g", s.MeanRate)
	}
}

// validate checks a trace's time ordering and bounds against a capacity.
func validate(t *Trace, capacity int64) error {
	var prev time.Duration
	for i, r := range t.Records {
		if r.Time < prev {
			return fmt.Errorf("trace %s: record %d time %v before %v", t.Name, i, r.Time, prev)
		}
		if r.Length <= 0 {
			return fmt.Errorf("trace %s: record %d non-positive length %d", t.Name, i, r.Length)
		}
		if r.Offset < 0 || r.Offset+r.Length > capacity {
			return fmt.Errorf("trace %s: record %d range [%d,%d) outside capacity %d",
				t.Name, i, r.Offset, r.Offset+r.Length, capacity)
		}
		prev = r.Time
	}
	return nil
}
