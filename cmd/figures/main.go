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
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/report"
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
	st := core.Study{Quick: *af.quick, Seeds: *af.seeds, MemModel: af.memModel}
	start := time.Now()

	// Admission: every requested study submits its cells to one global
	// queue. Only requested studies submit anything — a single-figure run
	// never executes unrelated sweeps.
	workers := core.DefaultWorkers()
	if *af.serial {
		workers = 1
	}
	sched := core.NewScheduler(workers)
	sched.Progress = sess.Heartbeat()
	var renders []func() []core.Figure
	for _, e := range core.FigureStudies {
		if *af.fig == 0 || slices.Contains(e.Figs, *af.fig) {
			fmt.Fprintf(stderr, "running %s...\n", e.Name)
			renders = append(renders, e.Schedule(sched, st))
		}
	}
	sched.Wait()

	// Rendering: serial figure order, independent of cell completion
	// order, so stdout is byte-identical to a -serial run.
	emitted := 0
	for _, render := range renders {
		for _, f := range render() {
			if *af.fig != 0 && f.ID != fmt.Sprintf("Fig %d", *af.fig) {
				continue
			}
			if *af.md {
				report.Markdown(stdout, f)
			} else {
				report.Render(stdout, f)
			}
			emitted++
		}
	}
	if emitted == 0 {
		return &core.ExitError{Err: fmt.Errorf("no such figure: %d (the paper has Figures 4-16)", *af.fig)}
	}

	// One fully-observed point per workload: the largest sweep point, first
	// seed.
	procs, seeds := st.Procs(), st.SeedList()
	obsProcs, seed := procs[len(procs)-1], seeds[0]
	err := sess.ObservePoints(func(k core.Kind) core.Cell { return st.ScalingCell(k, obsProcs, seed) })
	if err != nil {
		return err
	}
	err = sess.Finish(seeds, map[string]any{
		"study":    st,
		"observed": map[string]any{"processors": obsProcs, "seed": seed},
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stderr, "done: %d figure renderings in %s\n", emitted, time.Since(start).Round(time.Second))
	return nil
}
