package bench

import "encoding/json"

// RunSeconds is how long one run measures when the driver runs it; it
// is BENCHMARK.json's run_seconds.
const RunSeconds = 15

// Manifest renders BENCHMARK.json from the tables in this package, so
// the file the driver reads and the metrics the benchmark prints cannot
// drift apart (TestManifestMatchesRepo holds the file to it).
func Manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "cmd/afraidbench/run.sh"},
		Paths:      []string{"cmd/afraidbench", "internal/bench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.name, w.why})
	}
	for _, m := range EndToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range PerLayer {
		out.PerLayer = append(out.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(b, '\n')
}
