package core

import (
	"cmp"
	"fmt"

	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/reqtrace"
)

// SliceCycles is the run loop's default step in simulated cycles: the
// granularity at which progress, live latency, the flight recorder, the
// inspector, and checkpoints see a run.
const SliceCycles = 2_000_000

// Run is one simulated run and everything attached to it: the system, its
// observer, request-latency collector and flight recorder, and the
// heartbeat it reports progress on. Any attachment may be nil. A Session
// fills runs from the command-line flags; a loop that is not an engine run
// (loadsim's open cluster) builds one with a nil Sys to share Tick.
type Run struct {
	// Label names the run in artifacts (metrics sections, report keys).
	Label    string
	Sys      *System
	Observer *obs.Observer
	Latency  *reqtrace.Collector
	Flight   *flightrec.Recorder
	Progress *obs.Heartbeat

	// Warmup is the cycle at which Measure reset the stats, and Delta the
	// measurement-window metrics delta (nil without a registry).
	Warmup uint64
	Delta  *obs.Snapshot

	// slice overrides SliceCycles; onSlice runs after every
	// measurement-window slice. replay, when set, is the checkpoint a
	// resumed run must reproduce: Measure verifies its fingerprint at
	// replay.Cycle and saves nothing up to it.
	slice   uint64
	onSlice func(t uint64)
	replay  *Checkpoint
}

// attach makes sys the run's system and binds the run's latency collector
// and flight recorder to it. Call before Measure.
func (r *Run) attach(sys *System) {
	r.Sys = sys
	AttachLatency(sys, r.Observer, r.Latency)
	AttachFlight(sys, r.Flight)
}

// Tick is the per-slice work at simulated time t, the same for every loop:
// heartbeat cycles, live latency and memory load, the flight recorder's
// tick (and a tagged dump when the watchdog has tripped), and the
// inspector publish.
func (r *Run) Tick(t uint64) {
	hb := r.Progress
	hb.SetCycles(t)
	if r.Latency != nil && hb != nil {
		hb.SetLatency(r.Latency.LiveQuantiles())
	}
	r.Flight.Tick(t)
	if sys := r.Sys; sys != nil {
		if ls, ok := sys.Hier.LoadSnapshot(); ok {
			hb.SetMemLoad(ls.Util, ls.MemMult)
		}
		if r.Flight != nil {
			if wd := sys.Engine.WatchdogTripped(); wd != nil {
				r.Flight.Watchdog(wd.Cycle, wd.String())
			}
		}
	}
	if ob := r.Observer; ob != nil && ob.Inspect != nil {
		ob.Inspect.Publish(ob, false)
	}
}

// Measure drives the run through the standard warm-up/measure discipline;
// it is the harness's one loop that advances the engine in slices. Warm-up
// runs in profiler phase "warmup". At the boundary the engine's stats, the
// profiler, attribution, and the metrics base snapshot reset together, so
// every artifact covers exactly the window the figure metrics do; the
// measurement runs in phase "measure" and ends by closing the final
// attribution epoch. Every slice ends in Tick. With a plan, checkpoints are
// saved at its cadence over the measurement window and at the end; a failed
// save aborts the run (a survivability run with no checkpoints is not what
// was asked for).
func (r *Run) Measure(warmup, measure uint64, plan *CheckpointPlan) error {
	sys, eng := r.Sys, r.Sys.Engine
	AttachObserver(sys, r.Observer)
	ob := r.Observer
	if ob == nil {
		ob = &obs.Observer{} // every facility nil: each use below is a no-op
	}
	r.Warmup = warmup
	slice := cmp.Or(r.slice, SliceCycles)
	end := warmup + measure
	cp := r.replay
	if cp != nil && cp.Cycle > end {
		return fmt.Errorf("checkpoint cycle %d is past the run's end at cycle %d", cp.Cycle, end)
	}
	verified := cp == nil
	verify := func() error {
		verified = true
		eng.Run(cp.Cycle)
		return verifyReplay(sys, *cp)
	}
	save := func(t uint64) error {
		if cp != nil && t <= cp.Cycle {
			return nil // the checkpointed run already wrote this one
		}
		return plan.save(sys, warmup, t)
	}
	nextSave := uint64(0)
	if plan != nil && plan.Every > 0 {
		nextSave = warmup + plan.Every
	}
	runTo := func(from, to uint64, measuring bool) error {
		for t := from; t < to; {
			t = min(t+slice, to)
			if measuring && !verified && cp.Cycle <= t {
				if err := verify(); err != nil {
					return err
				}
			}
			eng.Run(t)
			r.Tick(t)
			if measuring && r.onSlice != nil {
				r.onSlice(t)
			}
			if nextSave > 0 && t >= nextSave {
				if err := save(t); err != nil {
					return err
				}
				for nextSave <= t {
					nextSave += plan.Every
				}
			}
		}
		return nil
	}

	ob.Profiler.SetPhase("warmup")
	if err := runTo(0, warmup, false); err != nil {
		return err
	}
	eng.ResetStats()
	ob.Profiler.Reset()
	ob.Attr.Reset()
	base := ob.Registry.Snapshot()
	if ob.Tracer.Admit(obs.CompWorkload) {
		ob.Tracer.Instant(obs.CompWorkload, "measure.start", 0, eng.Now())
	}
	ob.Profiler.SetPhase("measure")
	if err := runTo(warmup, end, true); err != nil {
		return err
	}
	if !verified { // an empty measurement window: the checkpoint sits at its start
		if err := verify(); err != nil {
			return err
		}
	}
	if err := save(end); err != nil {
		return err
	}
	r.Progress.AddRun()
	if ob.Attr != nil {
		// Attribute the tail of the measurement window that no GC closed.
		var res attr.Resolver
		if sys.Heap != nil {
			res = sys.Heap.SiteResolver()
		}
		ob.Attr.CloseEpoch(res, "final")
	}
	ob.Inspect.Publish(ob, true)
	if base != nil {
		r.Delta = ob.Registry.Snapshot().Delta(base)
	}
	return nil
}
