// Command figures regenerates the paper's evaluation figures (Figures 4
// through 16 of "Memory System Behavior of Java-Based Middleware",
// HPCA 2003) from the simulator and renders each as a data table and an
// ASCII plot.
//
// Usage:
//
//	figures [-fig N] [-quick] [-seeds K] [-serial] [-memmodel fixed|loaded]
//	        [-trace FILE] [-metrics FILE] [-profile FILE] [-heartbeat DUR]
//	        [-attr FILE] [-attr-exact] [-attr-top N] [-inspect ADDR]
//
// Without -fig, every figure is produced (Figures 4–9 share one scaling
// sweep per workload, so the whole set costs little more than its largest
// member). -quick selects the reduced test-sized configuration.
//
// All requested figures' simulation cells are admitted to one global work
// queue up front, so host cores stay busy across figure boundaries;
// figures are rendered in serial order once the queue drains, making
// stdout byte-identical to -serial, which runs every cell inline in
// submission order (the old one-sweep-at-a-time behavior).
//
// The observability flags additionally run one fully-observed point per
// workload (the largest processor count, first seed) and write a Chrome
// trace, a metrics-registry snapshot, a folded-stack cycle profile, a
// memory-attribution report, and/or a request-latency/SLO report
// (-latency/-slo), each with a reproducibility manifest
// (<file>.manifest.json) beside it. -inspect serves the observed runs'
// live metrics and attribution tables over HTTP while they execute.
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
	"repro/internal/report"
	"repro/internal/stats"
)

// appFlags is the full flag surface; registerFlags keeps it testable (the
// flag-parity test registers onto a scratch FlagSet).
type appFlags struct {
	fig      *int
	quick    *bool
	seeds    *int
	md       *bool
	serial   *bool
	memModel memsys.MemModel
	ofl      obs.Flags
}

func registerFlags(fs *flag.FlagSet) *appFlags {
	af := &appFlags{
		fig:    fs.Int("fig", 0, "figure number to regenerate (0 = all)"),
		quick:  fs.Bool("quick", false, "reduced runs (single seed, short windows)"),
		seeds:  fs.Int("seeds", 0, "override the number of seeds"),
		md:     fs.Bool("md", false, "emit GitHub-flavored markdown tables instead of text+plots"),
		serial: fs.Bool("serial", false, "run simulation cells serially in submission order instead of on the global work queue"),
	}
	af.memModel.RegisterFlag(fs)
	af.ofl.Register(fs)
	return af
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam: parse args, schedule
// the requested figures' cells, render in order, optionally run the
// observed points. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	af := registerFlags(fs)
	return core.Main(fs, args, &af.ofl, stdout, stderr, func(sess *core.Session) error {
		return figures(sess, af, stdout, stderr)
	})
}

// figures schedules the requested figures' cells, renders them in order,
// and runs the observed points.
func figures(sess *core.Session, af *appFlags, stdout, stderr io.Writer) error {
	fig, quick, seeds, md := af.fig, af.quick, af.seeds, af.md

	opts := core.DefaultOpts()
	sweepOpts := core.DefaultSweepOpts()
	memOpts := core.DefaultMemScaleOpts()
	commOpts := core.DefaultCommOpts()
	sharedOpts := core.DefaultSharedCacheOpts()
	if *quick {
		opts = core.QuickOpts()
		sweepOpts = core.QuickSweepOpts()
		memOpts = core.QuickMemScaleOpts()
		commOpts = core.QuickCommOpts()
		sharedOpts = core.QuickSharedCacheOpts()
	}
	if *seeds > 0 {
		opts.Seeds = stats.Seeds(20030208, *seeds)
		sharedOpts.Seeds = opts.Seeds
	}
	// The memory model only affects the timing simulations (the scaling
	// sweeps and observed points); the uniprocessor cache sweeps (Figures
	// 12/13) count misses, not cycles.
	opts.MemModel = af.memModel

	want := func(n int) bool { return *fig == 0 || *fig == n }
	emitted := 0
	emit := func(f core.Figure) {
		if *md {
			report.Markdown(stdout, f)
		} else {
			report.Render(stdout, f)
		}
		emitted++
	}

	start := time.Now()

	// Admission: every requested figure submits its cells to one global
	// queue. Only requested groups submit anything — a single-figure run
	// never executes unrelated sweeps.
	workers := core.DefaultWorkers()
	if *af.serial {
		workers = 1
	}
	sched := core.NewScheduler(workers)
	sched.Progress = sess.Heartbeat()

	var jbb, ec *core.ScalingSweep
	if want(4) || want(5) || want(6) || want(7) || want(8) || want(9) {
		fmt.Fprintf(stderr, "running scaling sweeps (procs=%v, %d seeds)...\n", opts.Procs, len(opts.Seeds))
		jbb = core.ScheduleScalingSweep(sched, core.SPECjbb, opts)
		ec = core.ScheduleScalingSweep(sched, core.ECperf, opts)
	}

	var commJbb, commEc *core.CommProfile
	if want(10) || want(14) || want(15) {
		fmt.Fprintln(stderr, "running communication profiles (8 processors)...")
		commJbb, commEc = core.ScheduleCommProfiles(sched, commOpts)
	}

	var fig11 func() core.Figure
	if want(11) {
		fmt.Fprintln(stderr, "running memory-scaling study...")
		fig11 = core.ScheduleMemScale(sched, memOpts)
	}

	var cs *core.CacheSweeps
	if want(12) || want(13) {
		fmt.Fprintln(stderr, "running uniprocessor cache sweeps...")
		cs = core.ScheduleCacheSweeps(sched, sweepOpts, core.SweepSize, 0)
	}

	var fig16 func() core.Figure
	if want(16) {
		fmt.Fprintln(stderr, "running shared-cache CMP study...")
		fig16 = core.ScheduleSharedCache(sched, sharedOpts)
	}

	sched.Wait()

	// Rendering: serial figure order, independent of cell completion
	// order, so stdout is byte-identical to a -serial run.
	if jbb != nil {
		if want(4) {
			emit(core.Fig4Throughput(jbb, ec))
		}
		if want(5) {
			emit(core.Fig5ExecutionModes(ec))
			emit(core.Fig5ExecutionModes(jbb))
		}
		if want(6) {
			emit(core.Fig6CPIBreakdown(ec))
			emit(core.Fig6CPIBreakdown(jbb))
		}
		if want(7) {
			emit(core.Fig7DataStall(ec))
			emit(core.Fig7DataStall(jbb))
		}
		if want(8) {
			emit(core.Fig8C2CRatio(jbb, ec))
		}
		if want(9) {
			emit(core.Fig9GCScaling(jbb, ec))
		}
	}
	if commJbb != nil {
		if want(10) {
			emit(core.Fig10C2CTimeline(*commJbb))
		}
		if want(14) {
			emit(core.Fig14C2CDistribution(*commJbb, *commEc))
		}
		if want(15) {
			emit(core.Fig15C2CFootprint(*commJbb, *commEc))
		}
	}
	if fig11 != nil {
		emit(fig11())
	}
	if cs != nil {
		if want(12) {
			emit(core.Fig12ICacheMissRate(cs))
		}
		if want(13) {
			emit(core.Fig13DCacheMissRate(cs))
		}
	}
	if fig16 != nil {
		emit(fig16())
	}

	if emitted == 0 {
		return &core.ExitError{Err: fmt.Errorf("no such figure: %d (the paper has Figures 4-16)", *fig)}
	}

	// One fully-observed point per workload: the largest sweep point, first
	// seed.
	procs, seed := opts.Procs[len(opts.Procs)-1], opts.Seeds[0]
	if err := sess.ObservePoints(procs, seed, opts); err != nil {
		return err
	}
	err := sess.Finish(opts.Seeds, map[string]any{
		"scaling":  opts,
		"observed": map[string]any{"processors": procs, "seed": seed},
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stderr, "done: %d figure renderings in %s\n", emitted, time.Since(start).Round(time.Second))
	return nil
}
