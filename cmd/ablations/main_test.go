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
	drivertest.FlagParity(t, registerFlags, "memmodel", "quick", "which")
}

// TestStdoutPassivity: the studies' tables are byte-identical whatever
// observability is attached (the artifact flags add observed points).
func TestStdoutPassivity(t *testing.T) {
	drivertest.StdoutPassivity(t, run, nil, "-quick", "-which", "ism")
}

// TestUnknownStudy: an unknown -which is a usage error with exit status 2
// whose message lists the valid study names, and no study runs.
func TestUnknownStudy(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-which", "bogus", "-flight", "off"}, &stdout, &stderr)
	if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "ism, gc, latency, protocol, volano, cosim") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2, empty, the study names", code, stdout.String(), stderr.String())
	}
}
