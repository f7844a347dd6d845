package main

import (
	"bytes"
	"flag"
	"path/filepath"
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

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestModeGolden pins the associativity and block-size sweep tables at a
// small window, so a change to the sweep or the fetch feed that moves any
// miss rate shows.
func TestModeGolden(t *testing.T) {
	for _, mode := range []string{"assoc", "block"} {
		t.Run(mode, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-mode", mode, "-ops", "20", "-warm", "10", "-flight", "off"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			drivertest.Golden(t, filepath.Join("testdata", mode+".golden"), stdout.Bytes(), *updateGolden)
		})
	}
}
