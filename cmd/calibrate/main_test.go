package main

import (
	"flag"
	"regexp"
	"testing"

	"repro/internal/drivertest"
	"repro/internal/obs"
)

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the host-profile pair, the memory-model
// switch, and the driver's own flags must all be registered.
func TestFlagParity(t *testing.T) {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	registerFlags(fs)
	want := append(obs.StandardFlagNames(), obs.HostProfileFlagNames()...)
	want = append(want, "memmodel", "measure", "seed")
	for _, name := range want {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

// TestStdoutPassivity: the diagnostic table is byte-identical whatever
// observability is attached, apart from each line's wall-clock duration.
func TestStdoutPassivity(t *testing.T) {
	drivertest.StdoutPassivity(t, run, regexp.MustCompile(`\[[0-9.]+[µm]?s\]`), "-measure", "1000000")
}
