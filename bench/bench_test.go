package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestMain lets the test binary serve as the bench's child process, so the
// smoke test runs reps through the same re-exec path as the bench.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(m.Run())
}

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload, shortened, through child processes: two
// timed reps and one traced rep each. Every declared metric must come out
// with its declared unit, no rep may fail, and the observed ECperf run must
// simulate exactly what the unobserved one does.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	spec := mustSpec(t)
	out := t.TempDir()
	r, err := newRunner(spec, defaultSeed, true, out)
	if err != nil {
		t.Fatal(err)
	}
	fingerprints := map[string]string{}
	for _, w := range workloads {
		rs := &runs{w: w}
		prof := r.profilePath(w, 2)
		for _, p := range []string{"", "", prof} {
			rs.add(r.rep(w, p), "")
		}
		if n := rs.failed(); n > 0 {
			t.Fatalf("%s: %d of %d reps failed", w.name, n, len(rs.reps))
		}
		for _, traced := range []bool{false, true} {
			got, err := r.metrics(rs, traced)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(got), len(want))
			}
			for _, m := range want {
				if s, ok := got[m.Name]; !ok || s.Unit != m.Unit || s.N == 0 {
					t.Errorf("%s: metric %s = %+v, want unit %s", w.name, m.Name, s, m.Unit)
				}
			}
		}
		fingerprints[w.name] = rs.good()[0].Fingerprint
		if _, err := os.Stat(filepath.Join(out, w.name+".trace.json")); err != nil {
			t.Errorf("%s: no span trace: %v", w.name, err)
		}
	}
	if a, b := fingerprints["ecperf-15p-loaded"], fingerprints["ecperf-15p-obs"]; a != b {
		t.Errorf("observability changed the simulation: ecperf-15p-loaded %s, ecperf-15p-obs %s", a, b)
	}
}

// TestGoldenCoversWorkloads checks that golden.json pins every workload for
// the default seed and the held-out seed.
func TestGoldenCoversWorkloads(t *testing.T) {
	all, err := readGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []string{"20030208", "1"} {
		var names []string
		for name := range all[seed] {
			names = append(names, name)
		}
		slices.Sort(names)
		var want []string
		for _, w := range workloads {
			want = append(want, w.name)
		}
		slices.Sort(want)
		if !slices.Equal(names, want) {
			t.Errorf("golden.json seed %s pins %v, want %v", seed, names, want)
		}
	}
}
