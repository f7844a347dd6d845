package main

import (
	"regexp"
	"testing"

	"repro/internal/drivertest"
)

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the host-profile pair, the memory-model
// switch, and the driver's own flags must all be registered.
func TestFlagParity(t *testing.T) {
	drivertest.FlagParity(t, registerFlags, "memmodel", "measure", "seed")
}

// TestStdoutPassivity: the diagnostic table is byte-identical whatever
// observability is attached, apart from each line's wall-clock duration.
func TestStdoutPassivity(t *testing.T) {
	drivertest.StdoutPassivity(t, run, regexp.MustCompile(`\[[0-9.]+[µm]?s\]`), "-measure", "1000000")
}
