package main

import (
	"flag"
	"testing"

	"repro/internal/drivertest"
	"repro/internal/obs"
)

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the host-profile pair, the memory-model
// switch, and the driver's own flags must all be registered.
func TestFlagParity(t *testing.T) {
	fs := flag.NewFlagSet("ecperfsim", flag.ContinueOnError)
	registerFlags(fs)
	want := append(obs.StandardFlagNames(), obs.HostProfileFlagNames()...)
	want = append(want, "memmodel", "p", "oir", "seed", "warmup", "measure",
		"faults", "fault-bin", "fault-report",
		"watchdog", "checkpoint", "checkpoint-every", "resume")
	for _, name := range want {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
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
