// GC study: the paper's three garbage-collection observations in one run.
//
//  1. Figure 10 — cache-to-cache transfers over time. The paper's rate
//     collapses during stop-the-world collection (only the single collector
//     thread runs, so nobody is exchanging lines); the simulated rate does
//     not collapse (ROADMAP item "The Fig 10 collapse does not
//     reproduce").
//  2. Figure 11 — SPECjbb's live memory grows linearly with warehouses;
//     ECperf's middle tier stays flat past a small knee because the
//     database it feeds lives on another machine.
//  3. Figure 9's input — GC wall-clock share of the run.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	// 1. Transfer-rate timeline on an 8-processor SPECjbb run.
	fmt.Fprintln(os.Stderr, "profiling cache-to-cache transfers over time...")
	comm := core.RunCommProfile(core.SPECjbb, core.CommOpts{
		Seed:          3,
		WarmupCycles:  8_000_000,
		MeasureCycles: 40_000_000,
	})
	report.Render(os.Stdout, core.Fig10C2CTimeline(comm))
	fmt.Printf("collections in window: %d\n\n", comm.GCCount)

	// 2. Live memory vs. scale factor for both benchmarks.
	fmt.Fprintln(os.Stderr, "running memory-scaling study...")
	f := core.Fig11MemoryScaling(core.MemScaleOpts{
		Scales:          []int{1, 4, 8, 16, 24, 32, 40},
		OpsPerScaleUnit: 600,
		Seed:            3,
	})
	report.Render(os.Stdout, f)

	for _, s := range f.Series {
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		fmt.Printf("%s: %.1f MB at scale %d -> %.1f MB at scale %d\n",
			s.Label, first, int(s.X[0]), last, int(s.X[len(s.X)-1]))
	}
}
