package core

import (
	"repro/internal/jvm"
	"repro/internal/trace"
)

// MemScaleOpts size the Figure 11 experiment.
type MemScaleOpts struct {
	// Scales are the scale-factor values to sweep (warehouses / OIR).
	Scales []int
	// OpsPerScaleUnit is the op budget in rounds of the uniprocessor
	// thread set: one op per warehouse thread per round for SPECjbb, so
	// the budget grows with scale. ECperf plays twice as many rounds of
	// its six-thread pool, whatever its OIR.
	OpsPerScaleUnit int
	Seed            uint64
}

// DefaultMemScaleOpts is the full-fidelity configuration.
func DefaultMemScaleOpts() MemScaleOpts {
	return MemScaleOpts{
		Scales:          []int{1, 2, 4, 6, 8, 10, 15, 20, 25, 30, 35, 40},
		OpsPerScaleUnit: 1200,
		Seed:            20030208,
	}
}

// QuickMemScaleOpts is the reduced test/bench configuration.
func QuickMemScaleOpts() MemScaleOpts {
	return MemScaleOpts{
		Scales:          []int{1, 4, 8, 16, 32, 40},
		OpsPerScaleUnit: 500,
		Seed:            20030208,
	}
}

// fig11HeapConfig fixes the heap for the memory-scaling study. The old
// generation is sized so SPECjbb's linearly growing live set crosses the
// major-collection threshold around 30 warehouses — the point where the
// paper observed "the generational garbage collector begins compacting the
// older generations" and average live memory dips.
func fig11HeapConfig() jvm.Config {
	c := jvm.DefaultConfig()
	c.HeapBytes = 28 << 20
	c.NewGenBytes = 8 << 20
	// HotSpot 1.3-era full collections trigger on allocation failure, i.e.
	// a nearly full old generation — not on a conservative occupancy
	// fraction. Below the knee the old generation silently accumulates
	// promoted garbage (inflating "heap size after GC"); once the live set
	// approaches capacity, compaction starts and the reported live memory
	// DROPS — the paper's dip past ~30 warehouses.
	c.MajorOccupancy = 0.95
	// HotSpot 1.3.1 promoted aggressively (small survivor spaces); tenured
	// garbage accumulates between full collections.
	c.PromoteAge = 1
	return c
}

// memScalePoint runs one workload at one scale factor on a functional
// uniprocessor and reports the mean heap size immediately after garbage
// collection — the paper's live-memory metric (§4.6).
func memScalePoint(kind Kind, scale int, o MemScaleOpts) float64 {
	sys := buildMemScaleSystem(kind, scale, o.Seed)
	heap := sys.Heap

	// ECperf's middle-tier budget is independent of OIR: the larger
	// database lives on the other machine.
	rounds := o.OpsPerScaleUnit
	if kind == ECperf {
		rounds *= 2
	}
	var samples []float64
	lastGCs := heap.Stats.MinorGCs + heap.Stats.MajorGCs
	newUniPlayer(sys).play(rounds, func(int, *trace.Op) {
		if n := heap.Stats.MinorGCs + heap.Stats.MajorGCs; n != lastGCs {
			lastGCs = n
			samples = append(samples, float64(heap.Stats.LiveAfterLastGC))
		}
	})
	if len(samples) == 0 {
		// No natural collection in the budget: force one for the sample.
		gc := heap.MinorGC(nil)
		samples = append(samples, float64(gc.LiveBytes))
	}
	// Mean over the second half of the run (steady state).
	half := samples[len(samples)/2:]
	var sum float64
	for _, s := range half {
		sum += s
	}
	return sum / float64(len(half)) / (1 << 20) // MB
}

// buildMemScaleSystem assembles a functional-only system with the Figure 11
// heap. (BuildSystem's timing engine is unused here, but sharing the
// assembly keeps workload wiring identical.)
func buildMemScaleSystem(kind Kind, scale int, seed uint64) *System {
	return BuildSystem(SystemParams{
		Kind: kind, Processors: 1, Scale: scale, Seed: seed, TotalCPUs: 2,
		// The Figure 11 heap rides in as an explicit parameter so
		// memory-scaling cells can run concurrently with every other
		// figure's cells (a package-global hook would race).
		HeapConfig: fig11HeapConfig,
	})
}

// ScheduleMemScale submits every (workload, scale factor) cell of the
// memory-scaling study and returns Figure 11's renderer, which reads the
// cells once the scheduler has drained.
func ScheduleMemScale(sched *Scheduler, o MemScaleOpts) func() Figure {
	kinds := []Kind{ECperf, SPECjbb}
	ns := len(o.Scales)
	vals := grid(sched, len(kinds)*ns, func(i int) float64 {
		return memScalePoint(kinds[i/ns], o.Scales[i%ns], o)
	})
	return func() Figure {
		f := Figure{
			ID:     "Fig 11",
			Title:  "Memory Use vs. Scale Factor",
			XLabel: "Scale factor (warehouses / orders injection rate)",
			YLabel: "Live memory (MB)",
		}
		for ki, kind := range kinds {
			s := Series{Label: kind.String()}
			for si, scale := range o.Scales {
				s.X = append(s.X, float64(scale))
				s.Y = append(s.Y, vals[ki*ns+si])
				s.Err = append(s.Err, 0)
			}
			f.Series = append(f.Series, s)
		}
		return f
	}
}

// Fig11MemoryScaling reproduces Figure 11: live memory (MB, after GC)
// versus scale factor for both workloads.
func Fig11MemoryScaling(o MemScaleOpts) Figure {
	return runPrivate(func(s *Scheduler) func() Figure { return ScheduleMemScale(s, o) })()
}
