package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/drivertest"
)

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag and the driver's own flags must all be
// registered.
func TestFlagParity(t *testing.T) {
	drivertest.FlagParity(t, registerFlags, "ops", "warm", "seed", "mode", "fixed")
}

// TestStdoutPassivity: the miss-rate table is byte-identical whatever
// observability is attached.
func TestStdoutPassivity(t *testing.T) {
	drivertest.StdoutPassivity(t, run, nil, "-ops", "10", "-warm", "5")
}

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestModeGolden pins the associativity and block-size sweep tables at a
// small window, so a change to the sweep or the fetch feed that moves any
// miss rate shows.
func TestModeGolden(t *testing.T) {
	for _, mode := range []string{"assoc", "block"} {
		t.Run(mode, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-mode", mode, "-ops", "20", "-warm", "10", "-flight", "off"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			drivertest.Golden(t, filepath.Join("testdata", mode+".golden"), stdout.Bytes(), *updateGolden)
		})
	}
}

// TestScenarios runs the driver end to end, under the race detector when
// go test has -race: each sweep mode at a short window, whose cells build
// their machines concurrently, and a -trace run at the default window,
// whose concurrent per-cell tracers merge into one file. drivertest.Run
// checks that each run exits 0, its JSON artifacts parse and it leaves no
// spill or temporary file; check, when set, checks the run's artifacts.
func TestScenarios(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		check func(t *testing.T)
	}{
		{name: "size", args: []string{"-warm", "5", "-ops", "20", "-mode", "size"}},
		{name: "assoc", args: []string{"-warm", "5", "-ops", "20", "-mode", "assoc"}},
		{name: "block", args: []string{"-warm", "5", "-ops", "20", "-mode", "block", "-fixed", "1024"}},
		{name: "trace", args: []string{"-trace", "cachesweep-trace.json"},
			check: func(t *testing.T) { drivertest.TraceMetadataFirst(t, "cachesweep-trace.json") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drivertest.Run(t, run, tc.args...)
			if tc.check != nil {
				tc.check(t)
			}
		})
	}
}

// TestUnknownMode: an unknown -mode is a usage error on stderr with exit
// status 2, and stdout stays empty.
func TestUnknownMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-mode", "bogus", "-flight", "off"}, &stdout, &stderr)
	if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), `unknown -mode "bogus"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2, empty, the unknown mode named", code, stdout.String(), stderr.String())
	}
}

// TestBadFlags: a -fixed size the associativity or block ladder cannot
// build, a non-positive -ops or a negative -warm is a usage error on stderr
// with exit status 2, before any sweep runs or anything reaches stdout.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "assoc", "-fixed", "1000"}, "-fixed 1000"},
		{[]string{"-mode", "block", "-fixed", "512"}, "-fixed 512"},
		{[]string{"-mode", "assoc", "-fixed", "0"}, "-fixed 0"},
		{[]string{"-ops", "-5"}, "-ops -5"},
		{[]string{"-ops", "0"}, "-ops 0"},
		{[]string{"-warm", "-1"}, "-warm -1"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(tc.args, "-flight", "off"), &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 2, empty, %q named",
				strings.Join(tc.args, " "), code, stdout.String(), stderr.String(), tc.want)
		}
	}
}
