package main

import (
	"flag"
	"testing"

	"repro/internal/drivertest"
	"repro/internal/obs"
)

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the host-profile pair, and the driver's
// own flags must all be registered.
func TestFlagParity(t *testing.T) {
	fs := flag.NewFlagSet("cachesweep", flag.ContinueOnError)
	registerFlags(fs)
	want := append(obs.StandardFlagNames(), obs.HostProfileFlagNames()...)
	want = append(want, "ops", "warm", "seed", "mode", "fixed")
	for _, name := range want {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

// TestStdoutPassivity: the miss-rate table is byte-identical whatever
// observability is attached.
func TestStdoutPassivity(t *testing.T) {
	drivertest.StdoutPassivity(t, run, nil, "-ops", "10", "-warm", "5")
}
