// Command afraidbench is the repository's end-to-end benchmark: it
// builds each shipped stack in-process, loads it with paper-shaped
// traffic made from a seed, checks every byte it reads, and prints
// every metric by name with its unit. internal/bench/README.md is the
// glossary.
//
//	afraidbench                              all five workloads, summary JSON last
//	afraidbench -workload rw4k_net -trace 1  one workload, per-layer metrics
//	afraidbench -out runs.jsonl              also append each report to a file
//	afraidbench -compare a.jsonl b.jsonl     hold b's medians to a's within the bounds
//
// The benchmark driver runs one workload at a time:
//
//	afraidbench --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"afraid/internal/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all of "+fmt.Sprint(bench.Names())+")")
		seed     = flag.Uint64("seed", 1996, "seed of the generators; 2025 is the second documented seed")
		seconds  = flag.Float64("seconds", bench.RunSeconds, "measured window of each run")
		trace    = flag.Int("trace", 0, "1: traced run (one client, shims off then on) printing the per-layer metrics")
		short    = flag.Bool("short", false, "smoke run: 1 s windows, one set-up")
		out      = flag.String("out", "", "append each run's report to this file, one JSON object per line")
		spans    = flag.String("spans", "afraidbench-trace.json", "where a traced run writes its spans")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments and exit non-zero if the second is worse")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		spin     = flag.Int("spin", -1, "internal: be the idle-priority spinner of this processor (bench.Spin)")
	)
	flag.Parse()

	switch {
	case *spin >= 0:
		if err := bench.Spin(*spin); err != nil {
			fatal(err)
		}
		return
	case *manifest:
		os.Stdout.Write(bench.Manifest())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		a, err := bench.ReadReports(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := bench.ReadReports(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !bench.Compare(os.Stdout, a, b) {
			os.Exit(1)
		}
		return
	}

	if *short {
		*seconds = 1
	}
	names := bench.Names()
	if *workload != "" {
		names = []string{*workload}
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	var reports []*bench.Report
	failed := false
	for _, name := range names {
		rep, err := bench.Run(bench.Config{
			Workload: name, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Short: *short, SpanFile: *spans,
			Spinner: []string{self, "-spin"},
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		rep.Print(os.Stdout)
		if *out != "" {
			if err := appendReport(*out, rep); err != nil {
				fatal(err)
			}
		}
		reports = append(reports, rep)
		failed = failed || !rep.Correct
	}

	// The last line is what a program reads: the driver's result for a
	// single workload, the whole set with no claim attached otherwise.
	var last any = reports[0].Result
	if *workload == "" {
		last = struct {
			Runs  []*bench.Report `json:"runs"`
			Claim any             `json:"claim"`
		}{reports, nil}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if failed {
		os.Exit(1)
	}
}

func appendReport(path string, rep *bench.Report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "afraidbench:", err)
	os.Exit(2)
}
