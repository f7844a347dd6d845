package main

import (
	"testing"

	"repro/internal/drivertest"
)

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the host-profile pair, the memory-model
// switch, and the driver's own flags must all be registered.
func TestFlagParity(t *testing.T) {
	drivertest.FlagParity(t, registerFlags, "memmodel", "quick", "which")
}

// TestStdoutPassivity: the studies' tables are byte-identical whatever
// observability is attached (the artifact flags add observed points).
func TestStdoutPassivity(t *testing.T) {
	drivertest.StdoutPassivity(t, run, nil, "-quick", "-which", "ism")
}
