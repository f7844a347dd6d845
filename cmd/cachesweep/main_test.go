package main

import (
	"testing"

	"repro/internal/drivertest"
)

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the host-profile pair, and the driver's
// own flags must all be registered.
func TestFlagParity(t *testing.T) {
	drivertest.FlagParity(t, registerFlags, "ops", "warm", "seed", "mode", "fixed")
}

// TestStdoutPassivity: the miss-rate table is byte-identical whatever
// observability is attached.
func TestStdoutPassivity(t *testing.T) {
	drivertest.StdoutPassivity(t, run, nil, "-ops", "10", "-warm", "5")
}
