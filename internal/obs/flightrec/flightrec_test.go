package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// newTestRecorder builds a recorder writing into dir with a registry
// backed by a controllable counter.
func newTestRecorder(t *testing.T, dir string, opt Options) (*Recorder, *uint64) {
	t.Helper()
	opt.Dir = dir
	if opt.Label == "" {
		opt.Label = "test"
	}
	rec := New(opt)
	var counter uint64
	reg := obs.NewRegistry()
	reg.Counter("test.ops", func() uint64 { return counter })
	rec.reg = reg
	return rec, &counter
}

func readBundle(t *testing.T, path string) map[string]any {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading bundle: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("bundle %s is not JSON: %v", path, err)
	}
	return m
}

// TestFaultWindowTrigger checks that ticking past a scheduled window's start
// writes exactly one bundle tagged with the fault kind, and that the
// bundle's trace re-synthesizes the window span.
func TestFaultWindowTrigger(t *testing.T) {
	dir := t.TempDir()
	rec, _ := newTestRecorder(t, dir, Options{WindowCycles: 1000})
	rec.SetSchedule(&fault.Schedule{Events: []fault.Event{
		{Kind: fault.DBLockStorm, At: 500, Duration: 300, Magnitude: 30},
	}})

	rec.Tick(100) // before the window: nothing
	if len(rec.Dumps()) != 0 {
		t.Fatalf("dump before window start: %+v", rec.Dumps())
	}
	rec.Tick(600) // inside the window: one dump
	rec.Tick(700) // still inside: no second dump
	dumps := rec.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1: %+v", len(dumps), dumps)
	}
	if dumps[0].Trigger != "fault-db-lock-storm" {
		t.Fatalf("trigger %q, want fault-db-lock-storm", dumps[0].Trigger)
	}
	if base := filepath.Base(dumps[0].Path); base != "test-flight-000-fault-db-lock-storm.json" {
		t.Fatalf("bundle name %q", base)
	}

	b := readBundle(t, dumps[0].Path)
	trace, _ := b["trace"].([]any)
	found := false
	for _, raw := range trace {
		e, _ := raw.(map[string]any)
		// Chrome trace timestamps are microseconds at the 250 MHz clock:
		// window start cycle 500 -> ts 2; duration clamped to the dump cycle
		// (600), so 100 cycles -> 0.4 us.
		if e["name"] == "fault.window" && e["ts"] == float64(2) && e["dur"] == 0.4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no synthesized fault.window span covering the storm in %v", trace)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}
	if s := rec.Summary(); !strings.Contains(s, "1 dump(s)") || !strings.Contains(s, "fault-db-lock-storm@600") {
		t.Fatalf("summary %q", s)
	}
}

// TestManualDumpAndCap checks manual dumps, the DefaultMaxDumps cap, and
// the skipped accounting in Summary.
func TestManualDumpAndCap(t *testing.T) {
	dir := t.TempDir()
	rec, _ := newTestRecorder(t, dir, Options{WindowCycles: 100})
	for i := 0; i <= DefaultMaxDumps; i++ {
		rec.dump(uint64(10*(i+1)), "manual", "one more")
	}
	if got := len(rec.Dumps()); got != DefaultMaxDumps {
		t.Fatalf("%d dumps written, want cap of %d", got, DefaultMaxDumps)
	}
	if want := fmt.Sprintf("1 trigger(s) past the %d-dump cap", DefaultMaxDumps); !strings.Contains(rec.Summary(), want) {
		t.Fatalf("summary does not report the skipped trigger: %q", rec.Summary())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != DefaultMaxDumps {
		t.Fatalf("%d files on disk, want %d", len(ents), DefaultMaxDumps)
	}
}

// TestSnapshotDelta checks the recorder snapshots the registry every
// quarter window and that dumps carry the delta since the newest snapshot.
func TestSnapshotDelta(t *testing.T) {
	dir := t.TempDir()
	rec, counter := newTestRecorder(t, dir, Options{WindowCycles: 400})
	for now := uint64(100); now <= 2000; now += 100 {
		*counter += 7
		rec.Tick(now)
	}
	if rec.snapCycle != 2000 {
		t.Fatalf("newest snapshot at %d, want 2000", rec.snapCycle)
	}

	*counter += 5
	rec.dump(2040, "manual", "delta check")
	b := readBundle(t, rec.Dumps()[0].Path)
	if metrics, _ := b["metrics"].(string); !strings.Contains(metrics, "test.ops") {
		t.Fatalf("bundle metrics missing the registry counter: %q", metrics)
	}
	delta, _ := b["metrics_delta"].(string)
	if !strings.Contains(delta, "5") {
		t.Fatalf("metrics delta should show the +5 since the last snapshot: %q", delta)
	}
	if dc, _ := b["metrics_delta_cycles"].(float64); dc != 40 {
		t.Fatalf("delta cycles %v, want 40", dc)
	}
}

// TestShortWindowTicks: a window under four cycles still advances the
// snapshot cadence, one cycle at a time, so Tick returns.
func TestShortWindowTicks(t *testing.T) {
	rec, counter := newTestRecorder(t, t.TempDir(), Options{WindowCycles: 3})
	for now := uint64(1); now <= 10; now++ {
		*counter++
		rec.Tick(now)
	}
	if rec.snapCycle != 10 || rec.nextSnap != 11 {
		t.Fatalf("newest snapshot at %d, next due %d; want 10, 11", rec.snapCycle, rec.nextSnap)
	}
}

// TestDumpDeterminism checks the passivity contract's observable half: two
// recorders fed identical simulated state produce byte-identical bundles.
func TestDumpDeterminism(t *testing.T) {
	run := func(dir string) []byte {
		rec, counter := newTestRecorder(t, dir, Options{WindowCycles: 1000})
		rec.SetSchedule(&fault.Schedule{Events: []fault.Event{
			{Kind: fault.GCStorm, At: 300, Duration: 100, Magnitude: 4},
		}})
		tr := obs.NewRingTracer(rec.ring)
		for i := uint64(0); i < 50; i++ {
			tr.Span(obs.CompWorkload, "op", 0, i*10, i*10+5)
		}
		for now := uint64(100); now <= 400; now += 100 {
			*counter += 3
			rec.Tick(now)
		}
		if len(rec.Dumps()) != 1 {
			t.Fatalf("want 1 dump, got %+v", rec.Dumps())
		}
		buf, err := os.ReadFile(rec.Dumps()[0].Path)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a := run(t.TempDir())
	b := run(t.TempDir())
	if !bytes.Equal(a, b) {
		t.Fatalf("same simulated state produced different bundles:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestNilRecorderInert checks the disabled path: every method on a nil
// recorder is a no-op.
func TestNilRecorderInert(t *testing.T) {
	var rec *Recorder
	rec.Tick(100)
	rec.Watchdog(1, "x")
	rec.Brownout(1, 3)
	rec.SetCollector(nil)
	rec.SetSchedule(nil)
	rec.SetInspector(nil)
	if rec.Dumps() != nil || rec.Err() != nil || rec.Summary() != "" {
		t.Fatal("nil recorder must be fully inert")
	}
}

// TestBrownoutEscalation checks the brown-out trigger dumps only on
// escalation past the high-water mark.
func TestBrownoutEscalation(t *testing.T) {
	dir := t.TempDir()
	rec, _ := newTestRecorder(t, dir, Options{WindowCycles: 100})
	rec.Brownout(10, 0) // level 0 = no shedding, no dump
	rec.Brownout(20, 2) // escalation: dump
	rec.Brownout(30, 2) // plateau: no dump
	rec.Brownout(40, 1) // de-escalation: no dump
	rec.Brownout(50, 3) // new high water: dump
	dumps := rec.Dumps()
	if len(dumps) != 2 {
		t.Fatalf("%d dumps, want 2 (escalations to 2 and 3): %+v", len(dumps), dumps)
	}
	for _, d := range dumps {
		if d.Trigger != "brownout" {
			t.Fatalf("trigger %q, want brownout", d.Trigger)
		}
	}
}

// TestWatchdogOnce checks the watchdog trigger fires a single dump no
// matter how many ticks re-observe the tripped state.
func TestWatchdogOnce(t *testing.T) {
	dir := t.TempDir()
	rec, _ := newTestRecorder(t, dir, Options{WindowCycles: 100})
	rec.Watchdog(100, "no progress for 1000 cycles")
	rec.Watchdog(200, "no progress for 1000 cycles")
	if len(rec.Dumps()) != 1 {
		t.Fatalf("%d dumps, want 1", len(rec.Dumps()))
	}
	if rec.Dumps()[0].Trigger != "watchdog" {
		t.Fatalf("trigger %q", rec.Dumps()[0].Trigger)
	}
}
