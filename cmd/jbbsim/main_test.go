package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/drivertest"
)

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the memory-model switch, and the
// driver's own flags must all be registered.
func TestFlagParity(t *testing.T) {
	drivertest.FlagParity(t, registerFlags,
		"memmodel", "p", "w", "seed", "warmup", "measure", "watchdog",
		"checkpoint", "checkpoint-every", "resume")
}

// TestStdoutPassivity: the report is byte-identical whatever observability
// is attached.
func TestStdoutPassivity(t *testing.T) {
	args := []string{"-p", "2", "-warmup", "1000000", "-measure", "2000000"}
	if !testing.Short() {
		args = []string{"-p", "4", "-warmup", "2000000", "-measure", "8000000"}
	}
	drivertest.StdoutPassivity(t, run, nil, args...)
}

// TestShortFlightWindow: a flight window under four cycles, whose quarter
// is zero, still finishes the run.
func TestShortFlightWindow(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-p", "2", "-warmup", "100000", "-measure", "200000",
		"-flight-window", "3", "-flight", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
}

// TestInvalidRunParameters: negative warehouses, a processor set outside
// the machine or an empty measurement window end the run with exit code 1
// and a one-line error, before anything reaches stdout.
func TestInvalidRunParameters(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-w", "-1"}, "jbbsim: negative scale -1\n"},
		{[]string{"-measure", "0"}, "jbbsim: empty measurement window (-measure 0)\n"},
		{[]string{"-p", "0"}, "jbbsim: processor set 0 outside 1..16\n"},
		{[]string{"-p", "-4"}, "jbbsim: processor set -4 outside 1..16\n"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-p", "2", "-warmup", "100000", "-flight", "off"}, tc.args...), &stdout, &stderr)
		if code != 1 || stdout.Len() != 0 || stderr.String() != tc.want {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 and %q",
				strings.Join(tc.args, " "), code, stdout.String(), stderr.String(), tc.want)
		}
	}
}

// TestScenarios runs the driver end to end at full size, under the race
// detector when go test has -race: per-line attribution with -attr, SLO
// evaluation with the -latency artifact, and the loaded memory model with
// -metrics. drivertest.Run checks that each run exits 0, its JSON artifacts
// parse and it leaves no spill or temporary file.
func TestScenarios(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"attr", []string{"-p", "4", "-warmup", "4000000", "-measure", "16000000",
			"-attr", "jbbsim-attr.json"}},
		{"latency", []string{"-p", "4", "-warmup", "4000000", "-measure", "16000000",
			"-slo", "p99<=40ms", "-latency", "jbbsim-latency.json"}},
		{"loaded", []string{"-p", "8", "-warmup", "4000000", "-measure", "16000000",
			"-memmodel", "loaded", "-metrics", "jbbsim-loaded-metrics.json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drivertest.Run(t, run, tc.args...)
		})
	}
}
