package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/drivertest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the memory-model switch, and the
// driver's own flags must all be registered.
func TestFlagParity(t *testing.T) {
	drivertest.FlagParity(t, registerFlags,
		"memmodel", "p", "oir", "seed", "warmup", "measure", "faults",
		"fault-bin", "fault-report", "watchdog", "checkpoint",
		"checkpoint-every", "resume")
}

// TestStdoutPassivity: the report is byte-identical whatever observability
// is attached, for a plain run and for a -faults run.
func TestStdoutPassivity(t *testing.T) {
	args := []string{"-p", "2", "-warmup", "1000000", "-measure", "2000000"}
	if !testing.Short() {
		args = []string{"-p", "4", "-warmup", "2000000", "-measure", "8000000"}
	}
	t.Run("plain", func(t *testing.T) {
		drivertest.StdoutPassivity(t, run, nil, args...)
	})
	t.Run("faults", func(t *testing.T) {
		drivertest.StdoutPassivity(t, run, nil, append(args, "-faults", "demo", "-fault-bin", "1000000")...)
	})
}

// TestInvalidRunParameters: a processor set outside the machine, in a
// plain or a -faults run, a checkpoint naming an unknown workload, a
// negative injection rate or an empty measurement window ends the run with
// exit code 1 and a one-line error, before anything reaches stdout.
func TestInvalidRunParameters(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "bad.json")
	doc := fmt.Sprintf(`{"version": %d, "params": {"Kind": 7, "Processors": 2}}`, core.CheckpointVersion)
	if err := os.WriteFile(cp, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-p", "40"}, "ecperfsim: processor set 40 outside 1..16\n"},
		{[]string{"-p", "40", "-faults", "demo"}, "ecperfsim: processor set 40 outside 1..16\n"},
		{[]string{"-p", "0"}, "ecperfsim: processor set 0 outside 1..16\n"},
		{[]string{"-p", "-4"}, "ecperfsim: processor set -4 outside 1..16\n"},
		{[]string{"-p", "0", "-faults", "demo"}, "ecperfsim: processor set 0 outside 1..16\n"},
		{[]string{"-resume", cp}, "ecperfsim: checkpoint " + cp + ": unknown workload kind 7\n"},
		{[]string{"-oir", "-3"}, "ecperfsim: negative scale -3\n"},
		{[]string{"-measure", "0"}, "ecperfsim: empty measurement window (-measure 0)\n"},
		{[]string{"-measure", "0", "-faults", "demo"}, "ecperfsim: empty measurement window (-measure 0)\n"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(tc.args, "-flight", "off"), &stdout, &stderr)
		if code != 1 || stdout.Len() != 0 || stderr.String() != tc.want {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 and %q",
				strings.Join(tc.args, " "), code, stdout.String(), stderr.String(), tc.want)
		}
	}
}

// TestAttrGolden pins the attribution artifact byte for byte: a short
// 4-processor run's -attr JSON, sampled and exact, against testdata.
func TestAttrGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		flags  []string
	}{
		{"attr.golden", nil},
		{"attr-exact.golden", []string{"-attr-exact"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "attr.json")
			args := append([]string{"-p", "4", "-warmup", "4000000", "-measure", "16000000",
				"-flight", "off", "-attr", out}, tc.flags...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			drivertest.Golden(t, filepath.Join("testdata", tc.golden), got, *updateGolden)
		})
	}
}

// stormSchedule is one db-lock-storm, 12M cycles in, 8M cycles long, at
// magnitude 30.
const stormSchedule = `{"events": [{"kind": "db-lock-storm", "at": 12000000, "duration": 8000000, "magnitude": 30}]}`

// TestScenarios runs the driver end to end at full size, under the race
// detector when go test has -race: SLO evaluation with the -latency
// artifact, plain and across a db-lock-storm; the loaded memory model with
// -metrics; the built-in fault demo; a -trace run whose trace spills to
// disk as it records; and the storm run's flight bundle, from the default
// ring and from a 1000-event ring that wraps. drivertest.Run checks that
// each run exits 0, its JSON artifacts parse and it leaves no spill or
// temporary file; check, when set, checks the run's artifacts.
func TestScenarios(t *testing.T) {
	storm := filepath.Join(t.TempDir(), "storm.json")
	if err := os.WriteFile(storm, []byte(stormSchedule), 0o644); err != nil {
		t.Fatal(err)
	}
	stormRun := []string{"-p", "2", "-warmup", "4000000", "-measure", "24000000",
		"-faults", storm, "-fault-bin", "4000000", "-slo", "p99<=20ms"}
	for _, tc := range []struct {
		name  string
		args  []string
		check func(t *testing.T)
	}{
		{name: "latency", args: []string{"-p", "4", "-warmup", "4000000", "-measure", "16000000",
			"-slo", "p99<=40ms,err<=2%", "-latency", "ecperfsim-latency.json"}},
		{name: "storm-latency", args: append(stormRun, "-latency", "ecperfsim-storm-latency.json")},
		{name: "loaded", args: []string{"-p", "8", "-warmup", "4000000", "-measure", "16000000",
			"-memmodel", "loaded", "-metrics", "ecperfsim-loaded-metrics.json"}},
		{name: "faults-demo", args: []string{"-p", "2", "-warmup", "2000000", "-measure", "12000000",
			"-faults", "demo", "-fault-bin", "2000000"}},
		{name: "trace", args: []string{"-p", "4", "-warmup", "4000000", "-measure", "16000000",
			"-trace", "ecperfsim-trace.json"},
			check: func(t *testing.T) { drivertest.TraceMetadataFirst(t, "ecperfsim-trace.json") }},
		{name: "flight", args: stormRun, check: func(t *testing.T) { stormBundle(t) }},
		{name: "flight-wrapped", args: append(stormRun, "-flight-events", "1000"),
			check: func(t *testing.T) {
				if b := stormBundle(t); b.Ring.Evicted == 0 {
					t.Error("the 1000-event ring did not wrap")
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drivertest.Run(t, run, tc.args...)
			if tc.check != nil {
				tc.check(t)
			}
		})
	}
}

// flightBundle is the part of a flight bundle stormBundle reads.
type flightBundle struct {
	Trigger     string `json:"trigger"`
	Cycle       uint64 `json:"cycle"`
	WindowStart uint64 `json:"window_start_cycle"`
	Ring        struct {
		Evicted uint64 `json:"evicted"`
	} `json:"ring"`
	Metrics string `json:"metrics"`
	Trace   []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"trace"`
}

// stormBundle reads the one db-lock-storm bundle in the working directory
// and fails the test unless the storm triggered it, it holds the storm's
// fault.window span, its metrics report trace.dropped 0, and it holds at
// least one trace event with every event inside the bundle's window
// [window_start_cycle, cycle]. Event times are simulated microseconds, 250
// cycles each, rounded half to even.
func stormBundle(t *testing.T) flightBundle {
	t.Helper()
	paths, err := filepath.Glob("ecperfsim-flight-*-fault-db-lock-storm.json")
	if err != nil || len(paths) != 1 {
		t.Fatalf("db-lock-storm bundles %q (%v), want one", paths, err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var b flightBundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("%s: %v", paths[0], err)
	}
	if b.Trigger != "fault-db-lock-storm" {
		t.Errorf("%s: trigger %q, want fault-db-lock-storm", paths[0], b.Trigger)
	}
	dropped := ""
	for _, line := range strings.Split(b.Metrics, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "trace.dropped" {
			dropped = f[1]
		}
	}
	if dropped != "0" {
		t.Errorf("%s: trace.dropped %q, want 0", paths[0], dropped)
	}
	window, events := false, 0
	for _, e := range b.Trace {
		if e.Ph == "M" {
			continue
		}
		events++
		window = window || e.Name == "fault.window" && e.Args["kind"] == "db-lock-storm"
		from, to := math.RoundToEven(e.Ts*250), math.RoundToEven((e.Ts+e.Dur)*250)
		if from > float64(b.Cycle) || to < float64(b.WindowStart) {
			t.Errorf("%s: %s event at [%v, %v] cycles, outside the window [%d, %d]",
				paths[0], e.Name, from, to, b.WindowStart, b.Cycle)
		}
	}
	if events == 0 {
		t.Errorf("%s: no trace events", paths[0])
	}
	if !window {
		t.Errorf("%s: no db-lock-storm fault.window span", paths[0])
	}
	return b
}
