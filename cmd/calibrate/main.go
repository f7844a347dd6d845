// Command calibrate prints one diagnostic line per (workload, processor
// count) point of the scaling sweep, with bus-level miss decomposition by
// address region, lock-wait breakdown by lock class, and remote-tier
// utilization. It is the tool the simulator's parameters were tuned with;
// keep it around — every recalibration starts here. The tuned values are
// typed constant blocks in the packages they tune (the workloads, netsim,
// osmodel, cpu, jvm, tlb, db, appserver and cluster; DESIGN.md §6 lists
// them): edit the constant, then rerun this.
//
// Usage:
//
//	calibrate [-measure cycles] [-seed N] [-memmodel fixed|loaded]
//	          [-trace FILE] [-metrics FILE] [-profile FILE] [-heartbeat DUR]
//	          [-attr FILE] [-attr-exact] [-attr-top N] [-inspect ADDR]
//	          [-latency FILE] [-slo SPEC] [-latency-interval cycles]
//
// The observability flags additionally run one fully-observed point per
// workload (the largest processor count in the sweep) after the diagnostic
// table, the same semantics as cmd/figures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/obs"
)

// appFlags is the full flag surface; registerFlags keeps it testable (the
// flag-parity test registers onto a scratch FlagSet).
type appFlags struct {
	measure  *uint64
	seed     *uint64
	memModel memsys.MemModel
	ofl      obs.Flags
}

func registerFlags(fs *flag.FlagSet) *appFlags {
	af := &appFlags{
		measure: fs.Uint64("measure", 30_000_000, "measurement window in cycles"),
		seed:    fs.Uint64("seed", 1, "simulation seed"),
	}
	af.memModel.RegisterFlag(fs)
	af.ofl.Register(fs)
	return af
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam; it returns the process
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	af := registerFlags(fs)
	return core.Main(fs, args, &af.ofl, stdout, stderr, func(sess *core.Session) error {
		return calibrate(sess, af, stdout)
	})
}

// calibrate prints the diagnostic table, then runs the observed points.
func calibrate(sess *core.Session, af *appFlags, stdout io.Writer) error {
	seed := *af.seed
	o := core.QuickOpts()
	o.MeasureCycles = *af.measure
	o.MemModel = af.memModel

	procs := []int{1, 2, 4, 8, 12, 15}
	for _, kind := range []core.Kind{core.SPECjbb, core.ECperf} {
		for _, p := range procs {
			t0 := time.Now()
			pt := core.RunScalingPointDebug(kind, p, seed, o)
			fmt.Fprintf(stdout, "%-8s P=%-2d thr=%8.0f cpi=%.2f(o=%.2f i=%.2f d=%.2f) u=%.2f s=%.2f io=%.2f id=%.2f gci=%.2f c2c=%.2f gc=%d gcf=%.3f i/op=%.0f\n  %s [%s]\n",
				kind, p, pt.Throughput, pt.CPI, pt.OtherCPI, pt.IStallCPI, pt.DStallCPI,
				pt.UserFrac, pt.SystemFrac, pt.IOFrac, pt.IdleFrac, pt.GCIdleFrac,
				pt.C2CRatio, pt.GCCount, pt.GCWallFrac, pt.InstrPerOp, pt.Debug,
				time.Since(t0).Round(time.Millisecond))
		}
	}

	// One fully-observed point per workload at the largest sweep shape.
	obsProcs := procs[len(procs)-1]
	if err := sess.ObservePoints(obsProcs, seed, o); err != nil {
		return err
	}
	return sess.Finish([]uint64{seed}, map[string]any{
		"sweep":    o,
		"observed": map[string]any{"processors": obsProcs, "seed": seed},
	})
}
