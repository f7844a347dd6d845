package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/attr"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenObserver builds a small, fully deterministic observer carrying every
// facility WriteArtifacts renders.
func goldenObserver(pid int, scale uint64) *Observer {
	ob := &Observer{
		Tracer:   NewTracer(AllComponents()),
		Registry: NewRegistry(),
		Profiler: NewProfiler(),
		Attr:     attr.NewCollector(attr.Options{Exact: true}),
	}
	ob.Tracer.Pid = pid
	ob.Tracer.NameProcess(pid, "run"+string(rune('A'+pid)))
	ob.Tracer.Span(CompWorkload, "op.neworder", 1, 10*scale, 40*scale, Bool("ok", true))
	if ob.Tracer.Admit(CompMem) { // the first of every 16 is sampled out
		ob.Tracer.Instant(CompMem, "bus.gets", 2, 25*scale)
	}

	ops := 7 * scale
	ob.Registry.Counter("workload.ops", func() uint64 { return ops })
	ob.Registry.Gauge("net.db.utilization", func() float64 { return 0.25 * float64(scale) })

	ob.Profiler.NameComponent(0, "app")
	ob.Profiler.SetPhase("measure")
	ob.Profiler.AddCycles(0, CatBase, 100*scale)
	ob.Profiler.AddCycles(0, CatDC2C, 30*scale)

	ob.Attr.RecordGetS(0x1000, 0, false)
	ob.Attr.RecordGetM(0x1000, 1, true)
	ob.Attr.RecordGetS(0x2040*scale, 1, true)
	ob.Attr.CloseEpoch(nil, "final")

	rep := `{"run": ` + string(rune('0'+pid)) + `, "classes": [{"class": "neworder", "count": 3}]}`
	ob.LatencyReport = func() []byte { return []byte(rep) }
	return ob
}

// TestWriteArtifactsGolden pins the bytes of every artifact kind and of the
// manifests written beside them, for two labelled observers: one whose
// metrics come from an explicit snapshot and one that falls back to a live
// registry snapshot.
func TestWriteArtifactsGolden(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		Trace:   filepath.Join(dir, "trace.json"),
		Metrics: filepath.Join(dir, "metrics.txt"),
		Profile: filepath.Join(dir, "profile.folded"),
		Attr:    filepath.Join(dir, "attr.json"),
		AttrTop: 5,
		Latency: filepath.Join(dir, "latency.json"),
	}
	a, b := goldenObserver(0, 1), goldenObserver(1, 2)
	base := a.Registry.Snapshot()
	snaps := []*Snapshot{a.Registry.Snapshot().Delta(base), nil}
	m := &Manifest{
		Command: "golden",
		Args:    []string{"-x", "1"},
		Git:     "v0-test",
		Started: time.Date(2003, 2, 8, 0, 0, 0, 0, time.UTC),
		Seeds:   []uint64{1, 2},
		Opts:    map[string]any{"procs": 4},
	}
	if err := f.WriteArtifacts([]string{"alpha", "beta"}, []*Observer{a, b}, snaps, m); err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	for _, p := range []string{f.Trace, f.Metrics, f.Profile, f.Attr, f.Latency} {
		for _, file := range []string{p, p + ".manifest.json"} {
			buf, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			got.WriteString("=== " + filepath.Base(file) + " ===\n")
			got.WriteString(strings.ReplaceAll(string(buf), dir, "$DIR"))
		}
	}

	golden := filepath.Join("testdata", "artifacts.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("artifacts differ from %s (rerun with -update only for an intended format change):\n%s", golden, got.String())
	}
}
