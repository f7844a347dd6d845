package main

import (
	"bytes"
	"regexp"
	"testing"

	"repro/internal/drivertest"
)

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the memory-model switch, and the
// driver's own flags must all be registered.
func TestFlagParity(t *testing.T) {
	drivertest.FlagParity(t, registerFlags, "memmodel", "measure", "seed")
}

// TestStdoutPassivity: the diagnostic table is byte-identical whatever
// observability is attached, apart from each line's wall-clock duration.
func TestStdoutPassivity(t *testing.T) {
	drivertest.StdoutPassivity(t, run, regexp.MustCompile(`\[[0-9.]+[µm]?s\]`), "-measure", "1000000")
}

// TestEmptyWindow: -measure 0 ends the run with exit code 1 and a one-line
// error before anything reaches stdout, as in jbbsim and ecperfsim, instead
// of a table of NaN rates.
func TestEmptyWindow(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-measure", "0", "-flight", "off"}, &stdout, &stderr)
	if want := "calibrate: empty measurement window (-measure 0)\n"; code != 1 || stdout.Len() != 0 || stderr.String() != want {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 and %q", code, stdout.String(), stderr.String(), want)
	}
}
