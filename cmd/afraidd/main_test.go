package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/obs"
	"afraid/internal/server"
	"afraid/internal/tier"
)

// layerKeys lists the snapshot keys one layer must contribute: a key
// per field of its stats struct. A field of a kind the snapshot cannot
// carry is itself a failure, so a new field either reaches STAT or
// fails here.
func layerKeys(t *testing.T, prefix string, stats any) []string {
	t.Helper()
	var keys []string
	rt := reflect.TypeOf(stats)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		key := prefix + obs.KeyName(f.Name)
		switch k := f.Type.Kind(); {
		case f.Type == reflect.TypeOf(time.Duration(0)):
			key += "_ns"
		case k == reflect.Bool, k >= reflect.Int && k <= reflect.Uint64:
		default:
			t.Errorf("%s.%s is a %s: not something the flat snapshot carries", rt, f.Name, f.Type)
			continue
		}
		keys = append(keys, key)
	}
	return keys
}

// serveStat puts backend behind a server on a loopback port, drives a
// few writes and reads through it, and returns the server with the STAT
// a client then reads over the wire.
func serveStat(t *testing.T, backend server.Backend) (*server.Server, server.Stat) {
	t.Helper()
	srv := server.New(backend, server.Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Serve(lis) // returns ErrServerClosed at Close
		close(done)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	c, err := server.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 4<<10)
	for i := 0; i < 8; i++ {
		if _, err := c.WriteAt(buf, int64(i)*int64(len(buf))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadAt(buf, int64(i)*int64(len(buf))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stat(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return srv, st
}

func keySet(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestStatCoversEveryCounter enforces "no hand-copied list": whatever
// core.Stats and tier.TierStats count is a key of a live STAT, a layer
// that is not stacked contributes nothing, and the /metrics endpoint
// shows exactly the keys STAT sends.
func TestStatCoversEveryCounter(t *testing.T) {
	openBack := func() *core.Store {
		devs := make([]core.BlockDevice, 4)
		for i := range devs {
			devs[i] = core.NewMemDevice(1 << 20)
		}
		back, err := core.Open(devs, &core.MemNVRAM{}, core.Options{StripeUnit: 8 << 10, DisableScrubber: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { back.Close() })
		return back
	}

	back := openBack()
	const extentSize = 16 << 10
	frontSize := int64(8 * (extentSize + 16))
	front := []core.BlockDevice{core.NewMemDevice(frontSize), core.NewMemDevice(frontSize)}
	// A migrator that waits an hour for idleness, under a valve above the
	// front, never runs.
	hybrid, err := tier.Open(back, front, &core.MemNVRAM{}, tier.Options{ExtentSize: extentSize, IdleDelay: time.Hour, MaxDirtyBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hybrid.Close() })
	srv, st := serveStat(t, hybrid)

	coreKeys := layerKeys(t, "core.", core.Stats{})
	for _, key := range append(coreKeys, layerKeys(t, "tier.", tier.TierStats{})...) {
		if _, ok := st[key]; !ok {
			t.Errorf("STAT from a tier-backed server has no %q", key)
		}
	}
	// Live values, not just names, cross the wire.
	for _, key := range []string{"tier.promotes", "tier.front_write_hits", "tier.resident_bytes", "core.reads",
		"server.capacity", "server.requests.write", "server.read_p50_ns", "server.write_p50_ns"} {
		if st[key] <= 0 {
			t.Errorf("STAT %s = %d after a workload, want > 0", key, st[key])
		}
	}
	if st["server.read_p50_ns"] > st["server.read_p99_ns"] || st["server.write_p50_ns"] > st["server.write_p99_ns"] {
		t.Errorf("percentiles not ordered: %v", st)
	}

	rec := httptest.NewRecorder()
	debugMux(srv, back, hybrid).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var doc map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/metrics JSON: %v\n%s", err, rec.Body.String())
	}
	if got, want := keySet(doc), keySet(st); !reflect.DeepEqual(got, want) {
		t.Errorf("/metrics and STAT disagree on the key set:\n/metrics %v\nSTAT     %v", got, want)
	}

	_, bare := serveStat(t, openBack())
	for _, key := range coreKeys {
		if _, ok := bare[key]; !ok {
			t.Errorf("STAT from a bare core server has no %q", key)
		}
	}
	for key := range bare {
		if strings.HasPrefix(key, "tier.") {
			t.Errorf("bare core server reports tier key %q", key)
		}
	}
}
