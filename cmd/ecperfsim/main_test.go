package main

import (
	"testing"

	"repro/internal/drivertest"
)

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the host-profile pair, the memory-model
// switch, and the driver's own flags must all be registered.
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
