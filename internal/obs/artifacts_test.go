package obs_test

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/drivertest"
	. "repro/internal/obs" // an external test package: drivertest imports obs
	"repro/internal/obs/attr"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenObserver builds a small, fully deterministic observer carrying every
// facility WriteArtifacts renders.
func goldenObserver(pid int, scale uint64) *Observer {
	ob := &Observer{
		Tracer:   NewTracer(),
		Registry: NewRegistry(),
		Profiler: NewProfiler(),
		Attr:     attr.NewCollector(attr.Options{Exact: true}),
	}
	ob.Tracer.Pid = pid
	ob.Tracer.NameProcess(pid, "run"+string(rune('A'+pid)))
	ob.Tracer.Span(CompWorkload, "op.neworder", 1, 10*scale, 40*scale, U64("ok", 1))
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

	ob.Attr.RecordGetS(0x1000, 0, false, 0)
	ob.Attr.RecordGetM(0x1000, 1, true, 0)
	ob.Attr.RecordGetS(0x2040*scale, 1, true, 0)
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

	drivertest.Golden(t, filepath.Join("testdata", "artifacts.golden"), []byte(got.String()), *updateGolden)
}

// TestTraceArtifactsLeaveNoSpill: a -trace tracer that spilled leaves only
// the expected files in the artifact directory: the trace and its manifest
// after a successful write, and nothing after a write that failed on a
// later artifact or because the spill itself could not be created.
func TestTraceArtifactsLeaveNoSpill(t *testing.T) {
	record := func(tr *Tracer) {
		for i := uint64(0); i < 2000; i++ {
			tr.Span(CompOS, "lock.wait", 1, i*100, i*100+40, Str("kind", "monitor"), U64("lock", i))
		}
	}
	listing := func(dir string) string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return strings.Join(names, " ")
	}

	ok := t.TempDir()
	f := Flags{Trace: filepath.Join(ok, "trace.json")}
	ob := f.NewObserver(0)
	record(ob.Tracer)
	if err := f.WriteArtifacts(nil, []*Observer{ob}, nil, &Manifest{}); err != nil {
		t.Fatal(err)
	}
	if got := listing(ok); got != "trace.json trace.json.manifest.json" {
		t.Errorf("after a write: %q", got)
	}
	if err := WriteChromeTrace(io.Discard, ob.Tracer); err == nil {
		t.Error("a second export after the artifact released the spill succeeded")
	}

	later := t.TempDir()
	f = Flags{Trace: filepath.Join(later, "trace.json"), Attr: filepath.Join(later, "missing", "attr.json")}
	ob = f.NewObserver(0)
	record(ob.Tracer)
	if err := f.WriteArtifacts(nil, []*Observer{ob}, nil, &Manifest{}); err == nil {
		t.Fatal("attr into a missing directory succeeded")
	}
	if got := listing(later); got != "" {
		t.Errorf("after a failed attr write: %q", got)
	}

	spill := filepath.Join(t.TempDir(), "gone")
	f = Flags{Trace: filepath.Join(spill, "trace.json")}
	ob = f.NewObserver(0)
	record(ob.Tracer) // the spill directory does not exist yet
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteArtifacts(nil, []*Observer{ob}, nil, &Manifest{}); err == nil {
		t.Fatal("a trace whose spill failed was written")
	}
	if got := listing(spill); got != "" {
		t.Errorf("after a failed spill: %q", got)
	}
}
