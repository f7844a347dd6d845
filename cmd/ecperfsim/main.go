// Command ecperfsim runs the ECperf-like 3-tier deployment — driver,
// application server (the measured machine), database, and supplier
// emulator — and prints the application-server-side measurements the paper
// collected, plus remote-tier utilization.
//
// Usage:
//
//	ecperfsim [-p processors] [-oir rate] [-seed N] [-measure cycles]
//	          [-memmodel fixed|loaded]
//	          [-trace FILE] [-metrics FILE] [-profile FILE] [-heartbeat DUR]
//	          [-attr FILE] [-attr-exact] [-attr-top N] [-inspect ADDR]
//	          [-latency FILE] [-slo SPEC] [-latency-interval cycles]
//	          [-faults FILE|demo] [-fault-bin cycles] [-fault-report FILE]
//	          [-watchdog cycles]
//	          [-checkpoint FILE] [-checkpoint-every cycles] [-resume FILE]
//
// With -latency and/or -slo, every business transaction is traced end to
// end through the tiers and decomposed into phases (CPU, memory stall, lock
// wait, network, DB queue/service, GC pause); per-class HDR histograms, the
// latency time series, and SLO verdicts print after the standard report and
// land in the -latency JSON artifact. Combined with -faults, the latency
// collector rides the *faulted* run, so the report shows the degradation
// and SLO burn around each fault window.
//
// With -faults, the run becomes a robustness experiment: the same seed is
// measured clean and with the fault schedule armed, and the tool prints the
// throughput-under-fault curve, per-window recovery times, and the
// retry/breaker/shed counters. "demo" uses the built-in schedule covering
// every fault kind.
//
// With -checkpoint, a resumable checkpoint is written at the end of the run
// (and every -checkpoint-every cycles); -resume continues a checkpointed
// run — the resumed run is bit-identical to one that never stopped.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/report"
)

// appFlags is the full flag surface; registerFlags keeps it testable (the
// flag-parity test registers onto a scratch FlagSet).
type appFlags struct {
	spec        core.RunSpec
	faults      *string
	faultBin    *uint64
	faultReport *string
	ofl         obs.Flags
}

func registerFlags(fs *flag.FlagSet) *appFlags {
	af := &appFlags{
		spec:        core.RunSpec{Params: core.SystemParams{Kind: core.ECperf}},
		faults:      fs.String("faults", "", "fault schedule JSON file, or \"demo\" for the built-in schedule"),
		faultBin:    fs.Uint64("fault-bin", 4_000_000, "throughput sampling bin for -faults, in cycles"),
		faultReport: fs.String("fault-report", "", "also write the -faults figure (markdown) to FILE"),
	}
	af.spec.Register(fs, "processor-set size on the app server (1-16)")
	fs.IntVar(&af.spec.Params.Scale, "oir", 10, "orders injection rate (scale factor)")
	af.ofl.Register(fs)
	return af
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam; it returns the process
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ecperfsim", flag.ContinueOnError)
	af := registerFlags(fs)
	return core.Main(fs, args, &af.ofl, stdout, stderr, func(sess *core.Session) error {
		if *af.faults != "" {
			return runFaultExperiment(sess, af, stdout)
		}
		return simulate(sess, af, stdout)
	})
}

// simulate runs the configured (or resumed) ECperf point and prints its
// report.
func simulate(sess *core.Session, af *appFlags, stdout io.Writer) error {
	r, err := sess.Measure("ECperf", af.spec)
	if err != nil {
		return err
	}
	sys := r.Sys
	res := sys.Engine.Results()
	measure := af.spec.Measure

	seconds := float64(measure) / core.CyclesPerSecond
	fmt.Fprintf(stdout, "ECperf: %d processors, OIR %d, %.0f ms measured\n",
		sys.Params.Processors, sys.Params.Scale, seconds*1000)
	fmt.Fprintf(stdout, "throughput        %10.0f BBops/min (%0.0f/s)\n",
		60*float64(res.BusinessOps)/seconds, float64(res.BusinessOps)/seconds)
	for _, tag := range report.Tags(res.OpsByTag) {
		line := fmt.Sprintf("  %-15s %10d", tag, res.OpsByTag[tag])
		if h := res.LatencyByTag[tag]; h != nil && h.Count() > 0 {
			line += fmt.Sprintf("   p50 %5.2fms  p90 %5.2fms",
				1000*float64(h.Quantile(0.5))/core.CyclesPerSecond,
				1000*float64(h.Quantile(0.9))/core.CyclesPerSecond)
		}
		fmt.Fprintln(stdout, line)
	}
	report.Modes(stdout, res.Modes)
	c := res.CPU
	if c.Instructions > 0 {
		in := float64(c.Instructions)
		fmt.Fprintf(stdout, "CPI %.3f (other %.3f, i-stall %.3f, d-stall %.3f); %.0f instructions/BBop\n",
			float64(c.Total())/in, float64(c.BaseCycles)/in,
			float64(c.IStallCycles)/in, float64(c.DStall())/in,
			in/float64(res.BusinessOps))
	}
	bs := sys.Hier.Bus().Stats
	fmt.Fprintf(stdout, "bus: c2c ratio %.1f%% (%d transfers, %d from memory)\n",
		100*bs.C2CRatio(), bs.C2CTransfers, bs.MemTransfers)
	report.LoadedModel(stdout, sys)
	fmt.Fprintf(stdout, "object cache: hit ratio %.1f%% (%d entries)\n",
		100*sys.EC.Cache().HitRatio(), sys.EC.Cache().Len())
	if sys.DB != nil {
		fmt.Fprintf(stdout, "remote tiers: database %.0f%% utilized, supplier %.0f%%\n",
			100*sys.DB.Utilization(), 100*sys.Supplier.Utilization())
	}
	fmt.Fprintf(stdout, "gc: %d collections, %.1f%% of wall time\n",
		res.GCCount, 100*float64(res.GCWall)/float64(measure))
	report.RunTail(stdout, r, af.spec.Checkpoint, af.ofl.AttrTop)

	return sess.Finish([]uint64{af.spec.Params.Seed}, map[string]any{
		"processors": sys.Params.Processors, "oir": sys.Params.Scale,
		"warmup_cycles": r.Warmup, "measure_cycles": measure,
	})
}

// runFaultExperiment is the -faults mode: a paired clean/faulted measurement
// rendered as the throughput-under-fault curve. The session's attachments
// ride the faulted run. Nothing reaches stdout before the run parameters
// are found valid.
func runFaultExperiment(sess *core.Session, af *appFlags, stdout io.Writer) error {
	p := af.spec.Params
	spec, warmup, measure := *af.faults, af.spec.Warmup, af.spec.Measure
	var sched *fault.Schedule
	if spec == "demo" {
		sched = fault.Demo(warmup, measure)
	} else {
		var err error
		sched, err = fault.LoadSchedule(spec)
		if err != nil {
			return err
		}
	}
	r, err := sess.FaultExperiment("ECperf-faulted", core.FaultRunOpts{
		Processors:    p.Processors,
		Seed:          p.Seed,
		MemModel:      p.MemModel,
		Schedule:      sched,
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		BinCycles:     *af.faultBin,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fault schedule (%d events):\n", len(sched.Events))
	for _, e := range sched.Events {
		fmt.Fprintf(stdout, "  %s\n", e)
	}
	f := core.FaultFigure(r)
	report.Render(stdout, f)
	if rt := r.System.Engine.ReqTrace(); rt != nil {
		fmt.Fprintln(stdout)
		report.LatencySummary(stdout, rt.BuildReport())
	}

	if path := *af.faultReport; path != "" {
		if err := report.WriteMarkdownFile(path, f); err != nil {
			return err
		}
	}

	sess.Command = "ecperfsim -faults"
	return sess.Finish([]uint64{p.Seed}, map[string]any{
		"processors": p.Processors, "schedule": spec,
		"warmup_cycles": warmup, "measure_cycles": measure, "bin_cycles": *af.faultBin,
	})
}
