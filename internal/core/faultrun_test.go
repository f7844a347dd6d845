package core

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/attr"
)

// TestFaultRunCurveAndRecovery drives the quick fault experiment end to
// end: the partition window must dent throughput, resilience machinery must
// engage, and throughput must recover after the heal.
func TestFaultRunCurveAndRecovery(t *testing.T) {
	o := QuickFaultRunOpts()
	r := runFaultExperiment(o, &Run{})

	if len(r.Baseline) != len(r.BinStart) || len(r.Faulted) != len(r.BinStart) {
		t.Fatalf("bin shapes differ: %d starts, %d baseline, %d faulted",
			len(r.BinStart), len(r.Baseline), len(r.Faulted))
	}
	var base, faulted uint64
	for i := range r.Baseline {
		base += r.Baseline[i]
		faulted += r.Faulted[i]
	}
	if base == 0 || faulted == 0 {
		t.Fatalf("no throughput measured: clean=%d faulted=%d", base, faulted)
	}
	if faulted >= base {
		t.Fatalf("faults did not cost throughput: clean=%d faulted=%d", base, faulted)
	}

	// The window itself must show a dent: some in-window bin below 90% of
	// the clean run's same bin.
	ev := o.Schedule.Events[0]
	dented := false
	for i, start := range r.BinStart {
		if start >= ev.At && start < ev.End() && r.Faulted[i]*10 < r.Baseline[i]*9 {
			dented = true
			break
		}
	}
	if !dented {
		t.Fatal("no bin inside the partition window shows degraded throughput")
	}

	if r.Calls.Timeouts == 0 && r.Calls.FastFails == 0 {
		t.Fatalf("no fault outcomes recorded: %+v", r.Calls)
	}
	if r.Injected.DroppedPartition == 0 {
		t.Fatalf("injector saw no partition drops: %+v", r.Injected)
	}
	if len(r.Recovery) != 1 {
		t.Fatalf("want 1 recovery record, got %d", len(r.Recovery))
	}
	if rec := r.Recovery[0]; !rec.Recovered {
		t.Fatal("throughput never recovered after the partition healed")
	}
}

// TestFaultRunDeterministic is the acceptance bar: the same seed and
// schedule reproduce the identical faulted curve and counters.
func TestFaultRunDeterministic(t *testing.T) {
	o := QuickFaultRunOpts()
	o.MeasureCycles = 16_000_000
	o.Schedule.Events[0].At = 8_000_000
	o.Schedule.Events[0].Duration = 4_000_000
	a, b := runFaultExperiment(o, &Run{}), runFaultExperiment(o, &Run{})
	if a.Calls != b.Calls || a.Shed != b.Shed || a.Injected != b.Injected || a.Failed != b.Failed {
		t.Fatalf("counters differ:\n%+v %d %+v %d\n%+v %d %+v %d",
			a.Calls, a.Shed, a.Injected, a.Failed, b.Calls, b.Shed, b.Injected, b.Failed)
	}
	for i := range a.Faulted {
		if a.Faulted[i] != b.Faulted[i] {
			t.Fatalf("faulted curves diverge at bin %d: %d != %d", i, a.Faulted[i], b.Faulted[i])
		}
	}
}

// TestFaultRunMeasuresWindow: the faulted run follows the same
// warm-up/measure discipline as every observed run — its folded profile
// covers exactly the window the engine's counters do, and the final
// attribution epoch is closed.
func TestFaultRunMeasuresWindow(t *testing.T) {
	o := QuickFaultRunOpts()
	o.MeasureCycles = 16_000_000
	o.Schedule.Events[0].At = 8_000_000
	o.Schedule.Events[0].Duration = 4_000_000
	ob := obs.NewObserver()
	ob.Attr = attr.NewCollector(attr.Options{})
	r := runFaultExperiment(o, &Run{Observer: ob})
	checkProfileMatchesCounters(t, ob.Profiler, r.System)
	if ob.Attr.EpochCount() == 0 {
		t.Error("the faulted run closed no attribution epoch")
	}
}

// TestFaultMetricsAndTraceEvents checks the observability contract: an
// observed faulted run exposes fault.* counters in the metrics snapshot and
// fault windows / resilience instants on the trace.
func TestFaultMetricsAndTraceEvents(t *testing.T) {
	sys := BuildSystem(SystemParams{
		Kind: ECperf, Processors: 2, Seed: 7,
		FaultSchedule: &fault.Schedule{Events: []fault.Event{
			{Kind: fault.Partition, At: 5_000_000, Duration: 8_000_000, Peer: 1},
		}},
	})
	ob := obs.NewObserver()
	ob.Tracer = obs.NewTracer([]obs.Component{obs.CompFault})
	ob.Registry = obs.NewRegistry()
	delta := observeRun(t, sys, ob, nil, 2_000_000, 16_000_000)

	names := ob.Registry.Names()
	registered := func(name string) bool {
		for _, n := range names {
			if n == name {
				return true
			}
		}
		return false
	}
	for _, name := range []string{"fault.breaker.opens", "fault.breaker.rejects",
		"fault.shed", "workload.ops.failed", "workload.ops.shed"} {
		if !registered(name) {
			t.Fatalf("metric %q not registered", name)
		}
	}
	if delta.Counter("fault.call.timeouts") == 0 {
		t.Fatal("fault.call.timeouts is zero across a partition window")
	}
	if delta.Counter("fault.injected.dropped_partition") == 0 {
		t.Fatal("fault.injected.dropped_partition is zero")
	}

	var windows, instants int
	for _, r := range traceRecords(t, ob.Tracer) {
		if strings.HasPrefix(r.Name, "fault.") {
			windows++
		}
		if strings.HasPrefix(r.Name, "resilience.") {
			instants++
		}
	}
	if windows == 0 {
		t.Fatal("no fault window spans on the trace")
	}
	if instants == 0 {
		t.Fatal("no resilience instants on the trace")
	}
}

// TestFaultFigureRenders checks the figure driver produces both series and
// the resilience note.
func TestFaultFigureRenders(t *testing.T) {
	o := QuickFaultRunOpts()
	o.MeasureCycles = 16_000_000
	o.Schedule.Events[0].At = 8_000_000
	o.Schedule.Events[0].Duration = 4_000_000
	f := FaultFigure(runFaultExperiment(o, &Run{}))
	if len(f.Series) != 2 || f.Series[0].Label != "clean" || f.Series[1].Label != "faulted" {
		t.Fatalf("unexpected series: %+v", f.Series)
	}
	if len(f.Series[0].X) == 0 || len(f.Series[0].X) != len(f.Series[1].X) {
		t.Fatalf("series shapes: %d vs %d", len(f.Series[0].X), len(f.Series[1].X))
	}
	found := false
	for _, n := range f.Notes {
		if strings.Contains(n, "resilience:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no resilience note in %v", f.Notes)
	}
}
