package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"afraid/internal/exp"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from the current output")

// TestAllMatchesGolden pins every table, figure, ablation and study that
// `experiments -exp all` prints at its defaults (-dur 60s -seed 1996).
// The simulation is deterministic, so any change to the text is a change
// to the simulator or the analytics: regenerate with
//
//	go test ./cmd/experiments -run TestAllMatchesGolden -update
//
// and review the diff of testdata/all.golden.
func TestAllMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which can move a
		// printed digit.
		t.Skipf("golden output is pinned on amd64, have %s", runtime.GOARCH)
	}
	var got bytes.Buffer
	if err := render(&got, "all", exp.Config{Duration: 60 * time.Second, Seed: 1996}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
			}
		}
		t.Fatal("output differs from testdata/all.golden; rerun with -update if the change is intended")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := render(&bytes.Buffer{}, "table9", exp.Config{}); !errors.Is(err, errUnknown) {
		t.Fatalf("unknown experiment: err = %v, want errUnknown (exit status 2)", err)
	}
}
