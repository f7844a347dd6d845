// Kernel-time study: the paper's §6 related-work comparison, end to end.
//
// VolanoMark creates one server thread per client connection and broadcasts
// every chat message to the whole room — almost all of its work is kernel
// networking. ECperf's application server pools threads and batches its
// tier crossings; SPECjbb never touches the network at all. The system-time
// ordering VolanoMark ≫ ECperf ≫ SPECjbb is the §6 claim this example
// reproduces.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	fmt.Fprintln(os.Stderr, "running three workloads on 8 processors...")
	f := core.KernelTimeStudy.Run(core.Study{Quick: true})[0]
	report.Render(os.Stdout, f)

	y := f.Series[0].Y
	fmt.Printf("system time share of busy cycles: SPECjbb %.1f%%, ECperf %.1f%%, VolanoMark %.1f%%\n",
		y[0], y[1], y[2])
	if y[2] > y[1] && y[1] > y[0] {
		fmt.Println("=> §6 ordering reproduced: VolanoMark ≫ ECperf ≫ SPECjbb")
	}
}
