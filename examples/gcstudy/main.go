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
	// 1. Transfer-rate timeline on an 8-processor SPECjbb run. The
	// full-fidelity window is long enough to hold a collection; the quick
	// one is not.
	fmt.Fprintln(os.Stderr, "profiling cache-to-cache transfers over time...")
	comm := core.Study{}.CommCell(core.SPECjbb).Run().Comm
	report.Render(os.Stdout, core.Fig10C2CTimeline(*comm))
	fmt.Printf("collections in window: %d\n\n", comm.GCCount)

	// 2. Live memory vs. scale factor for both benchmarks.
	fmt.Fprintln(os.Stderr, "running memory-scaling study...")
	f := core.MemScaleStudy.Run(core.Study{Quick: true})[0]
	report.Render(os.Stdout, f)

	for _, s := range f.Series {
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		fmt.Printf("%s: %.1f MB at scale %d -> %.1f MB at scale %d\n",
			s.Label, first, int(s.X[0]), last, int(s.X[len(s.X)-1]))
	}
}
