package core

import (
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/obs/attr"
)

// AttachObserver wires an observer through an assembled system (tracer into
// the engine and bus, profiler into every core) and registers the standard
// metric namespace against its registry. Call it after BuildSystem and
// before the first Run.
//
// The simulator is single-threaded per run, so concurrent runs (sweep
// cells) must each get their own Observer; merge traces afterwards with
// obs.WriteChromeTrace and keep them apart by Tracer.Pid.
func AttachObserver(sys *System, ob *obs.Observer) {
	if ob == nil {
		return
	}
	sys.Engine.AttachObs(ob)
	if ob.Tracer != nil {
		ob.Tracer.NameProcess(ob.Tracer.Pid, sys.Params.Kind.String())
		// Scheduled fault windows become spans on the fault track; the
		// injector then also emits resilience instants (retries, sheds,
		// breaker transitions) as the run hits them.
		sys.Faults.AttachTracer(ob.Tracer)
	}
	if ob.Profiler != nil && ob.Profiler.Scope == "" {
		ob.Profiler.Scope = sys.Params.Kind.String()
	}
	if ob.Attr != nil {
		sys.Hier.Bus().Attr = ob.Attr
		attachAttr(sys, ob.Attr)
	}
	registerMetrics(sys, ob.Registry)
	if r := ob.Registry; r != nil {
		if t := ob.Tracer; t != nil {
			// Events the linear trace buffer refused at its cap, and events
			// the flight-recorder ring overwrote with newer ones.
			r.Counter("trace.dropped", t.Dropped)
			r.Counter("trace.ring_evicted", func() uint64 { return t.Ring().Evicted() })
		}
		if a := ob.Attr; a != nil {
			r.Counter("attr.events", a.Events)
			r.Counter("attr.epochs", func() uint64 { return uint64(a.EpochCount()) })
			r.Counter("attr.resamples", func() uint64 { return uint64(a.Resamples()) })
			r.Gauge("attr.lines", func() float64 { return float64(a.Len()) })
		}
	}
}

// attachAttr lets an attribution collector name addresses: heap objects by
// allocation site, and addresses the heap cannot name (code, stacks, DB
// buffers) by the machine's address-space regions.
func attachAttr(sys *System, ac *attr.Collector) {
	if sys.Heap != nil {
		sys.Heap.SetAttr(ac)
	}
	space := sys.Space
	ac.Fallback = func(a uint64) (string, bool) {
		r, ok := space.FindRegion(mem.Addr(a))
		if !ok {
			return "", false
		}
		return r.Name, true
	}
}

// registerMetrics binds the machine's counters into the registry under the
// component namespaces. Bindings are pull-model closures over the live
// counters: registering costs nothing on the simulation hot path, and a
// Snapshot reads everything coherently between run slices.
func registerMetrics(sys *System, r *obs.Registry) {
	if r == nil {
		return
	}
	eng, hier := sys.Engine, sys.Hier
	bus := hier.Bus()

	r.Counter("memsys.l2.miss", func() uint64 { return hier.DataMisses + hier.FetchMisses })
	r.Counter("memsys.l2.data_miss", func() uint64 { return hier.DataMisses })
	r.Counter("memsys.l2.fetch_miss", func() uint64 { return hier.FetchMisses })
	r.Counter("memsys.l2.hit", func() uint64 { return bus.Stats.L2Hits })
	r.Counter("memsys.bus.gets", func() uint64 { return bus.Stats.GetS })
	r.Counter("memsys.bus.getm", func() uint64 { return bus.Stats.GetM })
	r.Counter("memsys.bus.upgrade", func() uint64 { return bus.Stats.Upgrades })
	r.Counter("memsys.bus.c2c", func() uint64 { return bus.Stats.C2CTransfers })
	r.Counter("memsys.bus.mem", func() uint64 { return bus.Stats.MemTransfers })
	r.Counter("memsys.bus.writeback", func() uint64 { return bus.Stats.Writebacks })
	r.Counter("memsys.bus.inval", func() uint64 { return bus.Stats.Invalidations })

	if hier.Model() == memsys.MemLoaded {
		// Loaded-latency model: the live channel utilization and the latency
		// multipliers it currently implies (gauges), plus the cumulative
		// stall charged beyond the fixed model (counters — snapshot deltas
		// give the per-interval cost of contention).
		snap := func() memsys.LoadSnapshot { ls, _ := hier.LoadSnapshot(); return ls }
		r.Gauge("memsys.loaded.util", func() float64 { return snap().Util })
		r.Gauge("memsys.loaded.mem_mult", func() float64 { return snap().MemMult })
		r.Gauge("memsys.loaded.c2c_mult", func() float64 { return snap().C2CMult })
		r.Counter("memsys.loaded.mem_extra_cycles", func() uint64 { return snap().MemExtraCycles })
		r.Counter("memsys.loaded.c2c_extra_cycles", func() uint64 { return snap().C2CExtraCycles })
		r.Counter("memsys.loaded.interventions", func() uint64 { return snap().Interventions })
	}

	r.Counter("cpu.instructions", func() uint64 { return eng.Results().CPU.Instructions })
	r.Counter("cpu.cycles.istall", func() uint64 { return eng.Results().CPU.IStallCycles })
	r.Counter("cpu.cycles.dstall", func() uint64 { c := eng.Results().CPU; return c.DStall() })

	r.Counter("jvm.gc.count", func() uint64 { return eng.Results().GCCount })
	r.Counter("jvm.gc.wall_cycles", func() uint64 { return eng.Results().GCWall })
	r.Histogram("jvm.gc.pause_cycles", eng.GCPauses())
	r.Gauge("jvm.heap.eden_used_bytes", func() float64 { return float64(sys.Heap.EdenUsed()) })
	r.Gauge("jvm.heap.old_used_bytes", func() float64 { return float64(sys.Heap.OldUsed()) })

	r.Counter("osmodel.lock.wait_cycles", func() uint64 { return eng.Results().LockWaitCycles })
	r.Counter("osmodel.lock.blocks", func() uint64 { return eng.Results().LockBlocks })
	r.Counter("osmodel.lock.acquires", func() uint64 { return eng.Results().LockAcquires })

	r.Counter("workload.ops", func() uint64 { return eng.Results().BusinessOps })

	if sys.DB != nil {
		r.Gauge("net.db.utilization", func() float64 { return sys.DB.Utilization() })
	}
	if sys.Supplier != nil {
		r.Gauge("net.supplier.utilization", func() float64 { return sys.Supplier.Utilization() })
	}

	if inj := sys.Faults; inj != nil {
		r.Counter("fault.injected.refused", func() uint64 { return inj.Stats.Refused })
		r.Counter("fault.injected.dropped_partition", func() uint64 { return inj.Stats.DroppedPartition })
		r.Counter("fault.injected.dropped_loss", func() uint64 { return inj.Stats.DroppedLoss })
		r.Counter("fault.injected.latency_scaled", func() uint64 { return inj.Stats.LatencyScaled })
		r.Counter("fault.injected.service_scaled", func() uint64 { return inj.Stats.ServiceScaled })
		r.Counter("fault.injected.gc_scaled", func() uint64 { return inj.Stats.GCScaled })
	}
	if sys.EC != nil {
		if c := sys.EC.Caller(); c != nil {
			r.Counter("fault.call.calls", func() uint64 { return c.Stats.Calls })
			r.Counter("fault.call.attempts", func() uint64 { return c.Stats.Attempts })
			r.Counter("fault.call.retries", func() uint64 { return c.Stats.Retries })
			r.Counter("fault.call.timeouts", func() uint64 { return c.Stats.Timeouts })
			r.Counter("fault.call.fastfails", func() uint64 { return c.Stats.FastFails })
			r.Counter("fault.call.failures", func() uint64 { return c.Stats.Failures })
			r.Counter("fault.call.successes", func() uint64 { return c.Stats.Successes })
			r.Counter("fault.breaker.opens", func() uint64 { return c.BreakerStats().Opens })
			r.Counter("fault.breaker.rejects", func() uint64 { return c.BreakerStats().Rejects })
			r.Counter("fault.breaker.probes", func() uint64 { return c.BreakerStats().Probes })
			r.Counter("fault.shed", func() uint64 { return c.ShedCount() })
		}
		r.Counter("workload.ops.failed", func() uint64 { return sys.EC.FailedOps })
		r.Counter("workload.ops.shed", func() uint64 { return sys.EC.ShedOps })
	}
}

// ObserveRunCheckpointed drives a built system through Run.Measure with
// the given observer, heartbeat, and checkpoint plan, and returns the
// measurement-window metrics delta. The latency collector and flight
// recorder already attached to sys (AttachLatency, AttachFlight) ride the
// run. ob and hb may be nil — the run is then identical to the plain
// warm-up/measure sequence.
func ObserveRunCheckpointed(sys *System, ob *obs.Observer, hb *obs.Heartbeat, warmup, measure uint64, plan *CheckpointPlan) (*obs.Snapshot, error) {
	r := &Run{Sys: sys, Observer: ob, Latency: sys.Engine.ReqTrace(), Flight: sys.Flight, Progress: hb}
	err := r.Measure(warmup, measure, plan)
	return r.Delta, err
}
