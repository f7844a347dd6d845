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

// TestInvalidRunParameters: negative warehouses or an empty measurement
// window end the run with exit code 1 and a one-line error, before anything
// reaches stdout.
func TestInvalidRunParameters(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-w", "-1"}, "jbbsim: negative scale -1\n"},
		{[]string{"-measure", "0"}, "jbbsim: empty measurement window (-measure 0)\n"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(tc.args, "-p", "2", "-warmup", "100000", "-flight", "off"), &stdout, &stderr)
		if code != 1 || stdout.Len() != 0 || stderr.String() != tc.want {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 and %q",
				strings.Join(tc.args, " "), code, stdout.String(), stderr.String(), tc.want)
		}
	}
}
