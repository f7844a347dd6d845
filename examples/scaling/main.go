// Scaling study: sweep both middleware workloads across processor counts —
// the experiment behind the paper's Figures 4 (speedup) and 8
// (cache-to-cache ratio) — and render the two figures.
//
// SPECjbb should level off around 6-8x (contention on company-wide
// structures, single-threaded GC); ECperf should scale further, carried by
// its object cache getting hotter, before the kernel network path
// saturates.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	st := core.Study{Quick: true}

	fmt.Fprintln(os.Stderr, "sweeping SPECjbb...")
	jbb := core.RunScalingSweep(core.SPECjbb, st)
	fmt.Fprintln(os.Stderr, "sweeping ECperf...")
	ec := core.RunScalingSweep(core.ECperf, st)

	report.Render(os.Stdout, core.Fig4Throughput(jbb, ec))
	report.Render(os.Stdout, core.Fig8C2CRatio(jbb, ec))

	// The per-point detail is available too: e.g. ECperf's falling path
	// length (§4.4 of the paper — constructive interference in the object
	// cache).
	fmt.Println("ECperf instructions per BBop:")
	for i := range ec.Cells {
		cell := &ec.Cells[i]
		m := cell.Metric(func(p *core.ScalingPoint) float64 { return p.InstrPerOp })
		fmt.Printf("  %2d processors: %s\n", cell.Processors, m)
	}
}
