package main

import (
	"os"
	"strings"
	"testing"
)

// TestEmitTriage checks the gate-failure path's triage artifact: given a
// baseline and a current report with one injected regression, PERF_TRIAGE.md
// appears (atomically) with that regression ranked first.
func TestEmitTriage(t *testing.T) {
	t.Chdir(t.TempDir())
	base := `{"benchmarks": {
		"pkg:BenchmarkHot": {"ns_per_op": 100, "allocs_per_op": 10},
		"pkg:BenchmarkCold": {"ns_per_op": 50, "allocs_per_op": 3},
		"e2e:FiguresQuick": {"ns_per_op": 9.5e9}
	}}`
	cur := `{"benchmarks": {
		"pkg:BenchmarkHot": {"ns_per_op": 260, "allocs_per_op": 10},
		"pkg:BenchmarkCold": {"ns_per_op": 50, "allocs_per_op": 3},
		"e2e:FiguresQuick": {"ns_per_op": 9.55e9}
	}}`
	if err := os.WriteFile("BENCH_baseline.json", []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_1.json", []byte(cur), 0o644); err != nil {
		t.Fatal(err)
	}

	emitTriage("BENCH_baseline.json", "BENCH_1.json")

	buf, err := os.ReadFile("PERF_TRIAGE.md")
	if err != nil {
		t.Fatalf("no PERF_TRIAGE.md after a failed gate: %v", err)
	}
	md := string(buf)
	hot := strings.Index(md, "pkg:BenchmarkHot.ns_per_op")
	if hot < 0 {
		t.Fatalf("triage misses the regressed benchmark:\n%s", md)
	}
	if e2e := strings.Index(md, "e2e:FiguresQuick"); e2e >= 0 && e2e < hot {
		t.Fatalf("noise ranked above the 2.6x regression:\n%s", md)
	}
	if strings.Contains(md, "BenchmarkCold") {
		t.Fatalf("unchanged benchmark in the triage table:\n%s", md)
	}
}

// TestEmitTriageBadBaseline checks triage failures are reported, not fatal:
// a missing baseline leaves no artifact but does not panic or exit.
func TestEmitTriageBadBaseline(t *testing.T) {
	t.Chdir(t.TempDir())
	emitTriage("does-not-exist.json", "also-missing.json")
	if _, err := os.Stat("PERF_TRIAGE.md"); !os.IsNotExist(err) {
		t.Fatal("triage artifact written despite unreadable inputs")
	}
}

// TestAllocLimit: an allocation-free baseline admits no allocation at all,
// while a non-zero one gets the relative tolerance plus the noise slack.
func TestAllocLimit(t *testing.T) {
	for _, c := range []struct {
		base uint64
		tol  float64
		want uint64
	}{
		{0, 0.10, 0},
		{1, 0.10, 17},
		{1000, 0.10, 1116},
	} {
		if got := allocLimit(c.base, c.tol); got != c.want {
			t.Errorf("allocLimit(%d, %v) = %d, want %d", c.base, c.tol, got, c.want)
		}
	}
}

// TestResultValue: an e2e:ObsOverhead entry gates on its ratio and renders
// as one; every other entry gates on ns/op.
func TestResultValue(t *testing.T) {
	ratio := Result{Ratio: 1.245}
	if ratio.value() != 1.245 || ratio.String() != "1.245x" {
		t.Errorf("ratio entry: value %v, %q", ratio.value(), ratio.String())
	}
	ns := Result{NsPerOp: 2.5e9}
	if ns.value() != 2.5e9 || ns.String() != "2.50s" {
		t.Errorf("ns/op entry: value %v, %q", ns.value(), ns.String())
	}
}
