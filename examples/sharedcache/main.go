// Shared-cache CMP study: the paper's closing experiment (Figure 16).
// Eight processors share 1 MB L2 caches in groups of 1, 2, 4, and 8 —
// total cache shrinking from 8 MB to 1 MB as sharing widens.
//
// The two workloads pull opposite ways: ECperf's small, heavily shared
// working set loses its coherence misses and wins; SPECjbb-25's in-heap
// emulated database no longer fits and loses. This is the paper's example
// of two "similar" benchmarks steering a design decision in opposite
// directions.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	fmt.Fprintln(os.Stderr, "running 4 configurations (2 workloads x private and fully shared L2)...")
	f := core.SharedCacheStudy.Run(core.Study{Quick: true})[0]
	report.Render(os.Stdout, f)

	ec := f.Series[0]
	jbb := f.Series[1]
	fmt.Printf("ECperf:     private %.2f -> fully shared %.2f misses/1000 instructions\n",
		ec.Y[0], ec.Y[len(ec.Y)-1])
	fmt.Printf("SPECjbb-25: private %.2f -> fully shared %.2f misses/1000 instructions\n",
		jbb.Y[0], jbb.Y[len(jbb.Y)-1])
	if ec.Y[len(ec.Y)-1] < ec.Y[0] && jbb.Y[len(jbb.Y)-1] > jbb.Y[0] {
		fmt.Println("=> crossover reproduced: sharing helps ECperf, hurts SPECjbb-25")
	}
}
