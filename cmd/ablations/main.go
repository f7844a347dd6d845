// Command ablations runs the design-choice studies the paper motivates in
// prose: Solaris ISM pages (§6), collector parallelism (§4.1),
// cache-to-cache latency sensitivity (§4.3), and the invalidation protocol
// (§4.5). See internal/core/ablations.go.
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

// studies are the design-choice studies in the order they render, each
// under its -which name.
var studies = []struct {
	name string
	run  func(core.AblationOpts) core.Figure
}{
	{"ism", core.AblationISM},
	{"gc", core.AblationGCThreads},
	{"latency", core.AblationC2CLatency},
	{"protocol", core.AblationProtocol},
	{"volano", core.RelatedWorkKernelTime},
	{"cosim", core.CoSimExperiment},
}

// studyNames lists the -which values.
func studyNames() string {
	names := make([]string, len(studies))
	for i, s := range studies {
		names[i] = s.name
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

// runStudies renders the requested design-choice studies, then the
// observed points.
func runStudies(sess *core.Session, af *appFlags, stdout io.Writer) error {
	known := *af.which == ""
	for _, s := range studies {
		known = known || s.name == *af.which
	}
	if !known {
		return &core.ExitError{Err: fmt.Errorf("no such study: %q (use one of %s)", *af.which, studyNames())}
	}
	o := core.DefaultAblationOpts()
	if *af.quick {
		o = core.QuickAblationOpts()
	}
	o.MemModel = af.memModel

	for _, s := range studies {
		if *af.which == "" || *af.which == s.name {
			report.Render(stdout, s.run(o))
		}
	}

	// One fully-observed point per workload at the studies' shape.
	runOpts := core.Opts{
		WarmupCycles:  o.WarmupCycles,
		MeasureCycles: o.MeasureCycles,
		MemModel:      o.MemModel,
	}
	if err := sess.ObservePoints(core.StudyProcessors, o.Seed, runOpts); err != nil {
		return err
	}
	return sess.Finish([]uint64{o.Seed}, map[string]any{
		"ablation": o,
		"observed": map[string]any{"processors": core.StudyProcessors, "seed": o.Seed},
	})
}
