package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// snapText renders a metrics snapshot in its artifact form.
func snapText(t *testing.T, s *obs.Snapshot) string {
	t.Helper()
	if s == nil {
		t.Fatal("no metrics delta")
	}
	var b strings.Builder
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// metric returns the rest of name's line in a snapshot's text rendering
// (the -metrics format), and whether the snapshot has name.
func metric(t *testing.T, s *obs.Snapshot, name string) (string, bool) {
	t.Helper()
	for _, line := range strings.Split(snapText(t, s), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == name {
			return strings.Join(f[1:], " "), true
		}
	}
	return "", false
}

// counter returns a counter's value from a snapshot's text rendering.
func counter(t *testing.T, s *obs.Snapshot, name string) uint64 {
	t.Helper()
	v, ok := metric(t, s, name)
	n, err := strconv.ParseUint(v, 10, 64)
	if !ok || err != nil {
		t.Fatalf("snapshot has no counter %q", name)
	}
	return n
}

// newObserver returns an observer with a tracer, an empty registry and a
// profiler.
func newObserver() *obs.Observer {
	return &obs.Observer{Tracer: obs.NewTracer(), Registry: obs.NewRegistry(), Profiler: obs.NewProfiler()}
}

// testSession builds a session over flags with latency, metrics, and the
// flight recorder on, dumping into its own directory.
func testSession(t *testing.T) (*Session, string) {
	t.Helper()
	dir := t.TempDir()
	f := &obs.Flags{
		Metrics: filepath.Join(dir, "metrics.txt"),
		Latency: filepath.Join(dir, "latency.json"),
		SLO:     "p99<=40ms",
		Flight:  dir, FlightEvents: 4096, FlightWindow: 30_000_000,
	}
	var stdout, stderr bytes.Buffer
	s, err := NewSession("test", f, nil, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, dir
}

// TestResumeKeepsAttachments is the resume contract with every attachment
// on: a run checkpointed mid-window and resumed finishes with the same
// fingerprint, the same latency report, the same metrics delta, and the
// same flight bundles as a run that never stopped.
func TestResumeKeepsAttachments(t *testing.T) {
	const warmup, mid, end = 2_000_000, 10_000_000, 18_000_000

	ref, _ := testSession(t)
	want, err := ref.Measure("ECperf", RunSpec{Params: ckptParams(), Warmup: warmup, Measure: end - warmup})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	first, _ := testSession(t)
	if _, err := first.Measure("ECperf", RunSpec{Params: ckptParams(), Warmup: warmup, Measure: mid - warmup, Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	resumed, gotDir := testSession(t)
	got, err := resumed.Measure("ECperf", RunSpec{Measure: end - warmup, Resume: ckpt})
	if err != nil {
		t.Fatal(err)
	}

	if a, b := Fingerprint(want.Sys), Fingerprint(got.Sys); a != b {
		t.Fatalf("resumed run diverged: fingerprint %#x, want %#x", b, a)
	}
	if got.Warmup != warmup {
		t.Errorf("resumed warm-up boundary %d, want %d", got.Warmup, warmup)
	}
	if got.Latency == nil || !bytes.Equal(want.Latency.ReportJSON(), got.Latency.ReportJSON()) {
		t.Error("resumed run's latency report differs from the uninterrupted run's")
	}
	if a, b := snapText(t, want.Delta), snapText(t, got.Delta); a != b {
		t.Errorf("resumed metrics delta differs:\n%s\nwant\n%s", b, a)
	}
	wantDumps, gotDumps := want.Flight.Dumps(), got.Flight.Dumps()
	if len(wantDumps) == 0 {
		t.Fatal("the partition window triggered no flight dump")
	}
	if len(gotDumps) != len(wantDumps) {
		t.Fatalf("resumed run wrote %d flight bundles, want %d", len(gotDumps), len(wantDumps))
	}
	for i, d := range wantDumps {
		a, err := os.ReadFile(d.Path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(gotDir, filepath.Base(d.Path)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("flight bundle %d (%s) differs after resume", i, d.Trigger)
		}
	}
}

// TestSessionFaultExperimentDelta: a session's fault run hands Finish the
// measurement-window metrics delta, which agrees with the faulted engine's
// counters.
func TestSessionFaultExperimentDelta(t *testing.T) {
	s, dir := testSession(t)
	o := quickFaultRunOpts()
	o.MeasureCycles = 16_000_000
	o.Schedule.Events[0].At = 8_000_000
	o.Schedule.Events[0].Duration = 4_000_000
	res, err := s.FaultExperiment("ECperf-faulted", o)
	if err != nil {
		t.Fatal(err)
	}
	r := s.runs[0]
	if r.Delta == nil {
		t.Fatal("fault run left no metrics delta")
	}
	if got, want := counter(t, r.Delta, "workload.ops"), res.System.Engine.Results().BusinessOps; got != want {
		t.Errorf("metrics delta ops = %d, measurement window = %d", got, want)
	}
	if err := s.Finish([]uint64{o.Seed}, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"metrics.txt", "latency.json", "latency.json.manifest.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact %s: %v", name, err)
		}
	}
}
