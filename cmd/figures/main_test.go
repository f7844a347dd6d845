package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/drivertest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the host-profile pair, the memory-model
// switch, and the driver's own flags must all be registered.
func TestFlagParity(t *testing.T) {
	drivertest.FlagParity(t, registerFlags,
		"memmodel", "fig", "quick", "seeds", "md", "serial")
}

// runFigures drives the whole program in-process and returns its stdout,
// stderr, and exit code.
func runFigures(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

// TestParallelMatchesSerial is the scheduler's contract: stdout from the
// global-work-queue mode must be byte-identical to -serial (the old
// one-sweep-at-a-time order) — for the full set and for every individual
// figure. Figures render after the queue drains, in serial figure order,
// so completion order must never leak into the output. The full quick set
// is also pinned against testdata/quick.golden, so a refactor of the run
// harness cannot move any figure value.
func TestParallelMatchesSerial(t *testing.T) {
	figs := []string{"0"}
	if !testing.Short() {
		figs = append(figs, "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16")
	}
	for _, fig := range figs {
		t.Run("fig"+fig, func(t *testing.T) {
			par, _, code := runFigures(t, "-quick", "-fig", fig)
			if code != 0 {
				t.Fatalf("parallel run exited %d", code)
			}
			ser, _, code := runFigures(t, "-quick", "-fig", fig, "-serial")
			if code != 0 {
				t.Fatalf("serial run exited %d", code)
			}
			if par != ser {
				t.Fatalf("-fig %s: parallel stdout differs from -serial (%d vs %d bytes)", fig, len(par), len(ser))
			}
			if fig == "0" {
				drivertest.Golden(t, filepath.Join("testdata", "quick.golden"), []byte(par), *updateGolden)
			}
		})
	}
}

// TestSingleFigureRunsOnlyItsSweeps asserts that a single-figure request
// never executes unrelated simulation groups: each group announces itself
// on stderr immediately before submitting its cells, so the banner set is
// the scheduled-work set.
func TestSingleFigureRunsOnlyItsSweeps(t *testing.T) {
	banners := []string{
		"running scaling sweeps",
		"running communication profiles",
		"running memory-scaling study",
		"running uniprocessor cache sweeps",
		"running shared-cache CMP study",
	}
	cases := []struct {
		fig  string
		want string
	}{
		{"13", "running uniprocessor cache sweeps"},
		{"11", "running memory-scaling study"},
	}
	for _, c := range cases {
		t.Run("fig"+c.fig, func(t *testing.T) {
			_, stderr, code := runFigures(t, "-quick", "-fig", c.fig)
			if code != 0 {
				t.Fatalf("run exited %d: %s", code, stderr)
			}
			for _, b := range banners {
				has := strings.Contains(stderr, b)
				if b == c.want && !has {
					t.Errorf("-fig %s: expected %q group to run, stderr:\n%s", c.fig, b, stderr)
				}
				if b != c.want && has {
					t.Errorf("-fig %s: unrelated group %q was scheduled, stderr:\n%s", c.fig, b, stderr)
				}
			}
		})
	}
}
