package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	const mod = "repro@v0.0.0-00010101000000-000000000000/"
	for file, want := range map[string]string{
		mod + "internal/cache/cache.go":                    "cache",
		"/home/u/repro/internal/cache/sweep.go":            "cache",
		mod + "internal/workload/ecperf/ecperf.go":         "workload",
		mod + "internal/obs/flightrec/flightrec.go":        "obs",
		mod + "internal/obs/tracer.go":                     "obs",
		mod + "internal/core/observe.go":                   "core",
		"runtime/malloc.go":                                "gort",
		"internal/runtime/maps/map.go":                     "gort",
		"/usr/local/go/src/runtime/proc.go":                "gort",
		"/usr/local/go/src/internal/runtime/maps/group.go": "gort",
		mod + "internal/mem/mem.go":                        "other",
		"sort/zsortfunc.go":                                "other",
		"internal/poll/fd_unix.go":                         "other",
		"repro/bench/rep.go":                               "other",
		"/usr/local/go/src/encoding/json/encode.go":        "other",
	} {
		if got := layerOf(file); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", file, got, want)
		}
	}
}

// TestFoldTop folds a captured `go tool pprof -top -files` report (a
// jbb-8p and a cachesweep-fig13 profile merged). The expected sums were
// added up from the file independently; cache includes three
// "cache.go (inline)" rows worth 0.48s beside its other cache.go rows.
func TestFoldTop(t *testing.T) {
	f, err := os.Open("testdata/pprof-top-files.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byLayer, total, err := foldTop(f)
	if err != nil {
		t.Fatal(err)
	}
	if total != 6950*time.Millisecond {
		t.Errorf("total %v, want 6.95s", total)
	}
	for layer, want := range map[string]time.Duration{
		"cache":    5080 * time.Millisecond,
		"gort":     360 * time.Millisecond,
		"obs":      20 * time.Millisecond,
		"workload": 10 * time.Millisecond,
		"netsim":   0,
	} {
		if got := byLayer[layer]; got != want {
			t.Errorf("%s: %v, want %v", layer, got, want)
		}
	}
	pct := 0.0
	for _, d := range byLayer {
		pct += 100 * d.Seconds() / total.Seconds()
	}
	if math.Abs(pct-100) > 1e-9 {
		t.Errorf("layer shares sum to %v%%", pct)
	}
}

func TestFoldTopNeedsHeader(t *testing.T) {
	if _, _, err := foldTop(strings.NewReader("not a pprof report\n")); err == nil {
		t.Error("foldTop accepted text without a pprof table")
	}
}
