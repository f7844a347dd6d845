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
	fs := flag.NewFlagSet("ablations", flag.ContinueOnError)
	registerFlags(fs)
	want := append(obs.StandardFlagNames(), obs.HostProfileFlagNames()...)
	want = append(want, "memmodel", "quick", "which")
	for _, name := range want {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

// TestStdoutPassivity: the studies' tables are byte-identical whatever
// observability is attached (the artifact flags add observed points).
func TestStdoutPassivity(t *testing.T) {
	drivertest.StdoutPassivity(t, run, nil, "-quick", "-which", "ism")
}
