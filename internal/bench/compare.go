package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ReadReports reads a file of reports, one JSON object per line, as
// afraidbench -out writes it.
func ReadReports(path string) ([]Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Compare prints, for every workload and end-to-end metric both sets of
// runs have, the median of each set, the ratio with its base and the
// bound, and reports whether every pair of b is within its bound of a.
// Two sets of runs of the same code must pass (the A/A check); a later
// change is held to the same rule against its parent.
func Compare(w io.Writer, a, b []Report) bool {
	medians := func(rs []Report, workload, metric string) (float64, int) {
		var xs []float64
		for _, r := range rs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				xs = append(xs, v.Value)
			}
		}
		return median(xs), len(xs)
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %18s %7s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound")
	for _, wl := range workloads {
		for _, m := range EndToEnd {
			va, na := medians(a, wl.name, m.Name)
			vb, nb := medians(b, wl.name, m.Name)
			if na == 0 || nb == 0 || va == 0 {
				continue
			}
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  WORSE"
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-14s %11.2f n=%d %11.2f n=%d %8.4f of %-8.2f %6.2f%s\n",
				wl.name, m.Name, va, na, vb, nb, vb/va, va, m.Bound, verdict)
		}
	}
	return ok
}
