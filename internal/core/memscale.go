package core

import (
	"repro/internal/jvm"
	"repro/internal/trace"
)

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
// collection — the paper's live-memory metric (§4.6). The op budget is
// opsPerScaleUnit rounds of the uniprocessor thread set: one op per
// warehouse thread per round for SPECjbb, so the budget grows with scale.
func memScalePoint(kind Kind, scale, opsPerScaleUnit int) float64 {
	// A functional-only system with the Figure 11 heap (BuildSystem's timing
	// engine is unused here, but sharing the assembly keeps workload wiring
	// identical). The heap rides in as an explicit parameter so
	// memory-scaling runs can run concurrently with every other figure's
	// cells (a package-global hook would race).
	sys := BuildSystem(SystemParams{
		Kind: kind, Processors: 1, Scale: scale, Seed: StudySeed, TotalCPUs: 2, HeapConfig: fig11HeapConfig,
	})
	heap := sys.Heap

	// ECperf's middle-tier budget is independent of OIR: the larger
	// database lives on the other machine; it plays twice as many rounds of
	// its six-thread pool, whatever its OIR.
	rounds := opsPerScaleUnit
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

// MemScaleStudy reproduces Figure 11: live memory (MB, after GC) versus
// scale factor for both workloads. It is timing-free: each (workload, scale
// factor) run is a functional uniprocessor, so the memory model does not
// apply.
var MemScaleStudy = &Experiment{
	Name: "memory-scaling study",
	Figs: []int{11},
	functional: func(sched *Scheduler, st Study) func() []Figure {
		kinds := []Kind{ECperf, SPECjbb}
		p := st.preset()
		ns := len(p.scales)
		vals := grid(sched, len(kinds)*ns, func(i int) float64 {
			return memScalePoint(kinds[i/ns], p.scales[i%ns], p.opsPerScaleUnit)
		})
		return func() []Figure {
			f := Figure{
				ID:     "Fig 11",
				Title:  "Memory Use vs. Scale Factor",
				XLabel: "Scale factor (warehouses / orders injection rate)",
				YLabel: "Live memory (MB)",
			}
			for ki, kind := range kinds {
				s := Series{Label: kind.String()}
				for si, scale := range p.scales {
					s.X = append(s.X, float64(scale))
					s.Y = append(s.Y, vals[ki*ns+si])
					s.Err = append(s.Err, 0)
				}
				f.Series = append(f.Series, s)
			}
			return []Figure{f}
		}
	},
}
