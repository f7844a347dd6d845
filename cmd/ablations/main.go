// Command ablations runs the design-choice studies the paper motivates in
// prose: Solaris ISM pages (§6), collector parallelism (§4.1),
// cache-to-cache latency sensitivity (§4.3), and the invalidation protocol
// (§4.5). See internal/core/ablations.go. Every study's cells share one
// scheduler sized to the host and run under -memmodel.
//
// Usage:
//
//	ablations [-quick] [-which ism|gc|latency|protocol|volano|cosim]
//	          [-memmodel fixed|loaded]
//	          [-trace FILE] [-metrics FILE] [-profile FILE] [-heartbeat DUR]
//	          [-attr FILE] [-attr-exact] [-attr-top N] [-inspect ADDR]
//	          [-latency FILE] [-slo SPEC] [-latency-interval cycles]
//
// The observability flags additionally run one fully-observed point per
// workload (the study's processor count and seed) after the studies, the
// same semantics as cmd/figures: artifacts land next to the study output
// with a reproducibility manifest beside each file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/report"
)

// appFlags is the full flag surface; registerFlags keeps it testable (the
// flag-parity test registers onto a scratch FlagSet).
type appFlags struct {
	quick    *bool
	which    *string
	memModel memsys.MemModel
	ofl      obs.Flags
}

// studyNames lists the -which values.
func studyNames() string {
	names := make([]string, len(core.Ablations))
	for i, e := range core.Ablations {
		names[i] = e.Name
	}
	return strings.Join(names, ", ")
}

func registerFlags(fs *flag.FlagSet) *appFlags {
	af := &appFlags{
		quick: fs.Bool("quick", false, "reduced runs"),
		which: fs.String("which", "", "run one study ("+studyNames()+")"),
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
	fs := flag.NewFlagSet("ablations", flag.ContinueOnError)
	af := registerFlags(fs)
	return core.Main(fs, args, &af.ofl, stdout, stderr, func(sess *core.Session) error {
		return runStudies(sess, af, stdout)
	})
}

// runStudies runs the requested design-choice studies' cells on one
// scheduler sized to the host, renders them in study order, then runs the
// observed points.
func runStudies(sess *core.Session, af *appFlags, stdout io.Writer) error {
	var chosen []*core.Experiment
	for _, e := range core.Ablations {
		if *af.which == "" || *af.which == e.Name {
			chosen = append(chosen, e)
		}
	}
	if len(chosen) == 0 {
		return &core.ExitError{Err: fmt.Errorf("no such study: %q (use one of %s)", *af.which, studyNames())}
	}
	st := core.Study{Quick: *af.quick, MemModel: af.memModel}

	sched := core.NewScheduler(core.DefaultWorkers())
	sched.Progress = sess.Heartbeat()
	renders := make([]func() []core.Figure, len(chosen))
	for i, e := range chosen {
		renders[i] = e.Schedule(sched, st)
	}
	sched.Wait()
	for _, render := range renders {
		for _, f := range render() {
			report.Render(stdout, f)
		}
	}

	// One fully-observed point per workload at the studies' shape.
	if err := sess.ObservePoints(st.AblationCell); err != nil {
		return err
	}
	return sess.Finish([]uint64{core.StudySeed}, map[string]any{
		"study":    st,
		"observed": map[string]any{"processors": core.StudyProcessors, "seed": core.StudySeed},
	})
}
