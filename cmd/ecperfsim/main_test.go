package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/drivertest"
)

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

// TestInvalidRunParameters: a processor set larger than the machine, in a
// plain or a -faults run, or a checkpoint naming an unknown workload, ends
// the run with exit code 1 and a one-line error instead of a panic.
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
		{[]string{"-resume", cp}, "ecperfsim: checkpoint " + cp + ": unknown workload kind 7\n"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(tc.args, "-flight", "off"), &stdout, &stderr)
		if code != 1 || stdout.Len() != 0 || stderr.String() != tc.want {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 and %q",
				strings.Join(tc.args, " "), code, stdout.String(), stderr.String(), tc.want)
		}
	}
}
