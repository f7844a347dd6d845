// Command jbbsim runs the SPECjbb2000-like workload model on the simulated
// E6000 and prints the measurement views the paper collected: throughput,
// the mpstat-style execution-mode breakdown, the CPI decomposition, and the
// bus-level memory-system counters.
//
// Usage:
//
//	jbbsim [-p processors] [-w warehouses] [-seed N] [-measure cycles]
//	       [-memmodel fixed|loaded]
//	       [-trace FILE] [-metrics FILE] [-profile FILE] [-heartbeat DUR]
//	       [-attr FILE] [-attr-exact] [-attr-top N] [-inspect ADDR]
//	       [-latency FILE] [-slo SPEC] [-latency-interval cycles]
//	       [-watchdog cycles]
//	       [-checkpoint FILE] [-checkpoint-every cycles] [-resume FILE]
//
// With -latency and/or -slo, every transaction is traced end to end through
// the simulated tiers and decomposed into phases (CPU, memory stall, lock
// wait, network, DB queue/service, GC pause); the per-class HDR histograms,
// latency time series, and SLO verdicts print after the standard report and
// land in the -latency JSON artifact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// appFlags is the full flag surface; registerFlags keeps it testable (the
// flag-parity test registers onto a scratch FlagSet).
type appFlags struct {
	spec core.RunSpec
	ofl  obs.Flags
	hp   obs.HostProfile
}

func registerFlags(fs *flag.FlagSet) *appFlags {
	af := &appFlags{spec: core.RunSpec{Params: core.SystemParams{Kind: core.SPECjbb}}}
	af.spec.Register(fs, "processor-set size (1-16)")
	fs.IntVar(&af.spec.Params.Scale, "w", 0, "warehouses (0 = processors, the tuned value)")
	af.ofl.Register(fs)
	af.hp.Register(fs)
	return af
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam; it returns the process
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jbbsim", flag.ContinueOnError)
	af := registerFlags(fs)
	return core.Main(fs, args, &af.ofl, &af.hp, stdout, stderr, func(sess *core.Session) error {
		return simulate(sess, af, stdout)
	})
}

// simulate runs the configured (or resumed) SPECjbb point and prints its
// report.
func simulate(sess *core.Session, af *appFlags, stdout io.Writer) error {
	r, err := sess.Measure("SPECjbb", af.spec)
	if err != nil {
		return err
	}
	sys := r.Sys
	res := sys.Engine.Results()
	measure := af.spec.Measure

	seconds := float64(measure) / core.CyclesPerSecond
	fmt.Fprintf(stdout, "SPECjbb: %d processors, %d warehouses, %.0f ms measured\n",
		sys.Params.Processors, sys.Params.Scale, seconds*1000)
	fmt.Fprintf(stdout, "throughput        %10.0f transactions/s\n", float64(res.BusinessOps)/seconds)
	fmt.Fprintf(stdout, "transactions      %10d\n", res.BusinessOps)
	for _, tag := range report.Tags(res.OpsByTag) {
		fmt.Fprintf(stdout, "  %-15s %10d\n", tag, res.OpsByTag[tag])
	}
	report.Modes(stdout, res.Modes)
	c := res.CPU
	if c.Instructions > 0 {
		in := float64(c.Instructions)
		fmt.Fprintf(stdout, "CPI %.3f (other %.3f, i-stall %.3f, d-stall %.3f)\n",
			float64(c.Total())/in, float64(c.BaseCycles)/in,
			float64(c.IStallCycles)/in, float64(c.DStall())/in)
	}
	bs := sys.Hier.Bus().Stats
	fmt.Fprintf(stdout, "bus: GetS %d  GetM %d  upgrades %d  c2c %d (ratio %.1f%%)  memory %d  writebacks %d\n",
		bs.GetS, bs.GetM, bs.Upgrades, bs.C2CTransfers, 100*bs.C2CRatio(), bs.MemTransfers, bs.Writebacks)
	report.LoadedModel(stdout, sys)
	fmt.Fprintf(stdout, "gc: %d collections, %.1f%% of wall time; heap live %0.1f MB\n",
		res.GCCount, 100*float64(res.GCWall)/float64(measure),
		float64(sys.Heap.Stats.LiveAfterLastGC)/(1<<20))
	report.RunTail(stdout, r, af.spec.Checkpoint, af.ofl.AttrTop)

	return sess.Finish([]uint64{af.spec.Params.Seed}, map[string]any{
		"processors": sys.Params.Processors, "warehouses": sys.Params.Scale,
		"warmup_cycles": r.Warmup, "measure_cycles": measure,
	})
}
