// Command cachesweep runs the paper's uniprocessor trace-driven cache-size
// sweeps (the Simics+Sumo methodology behind Figures 12 and 13) and prints
// instruction- and data-cache miss rates per configuration.
//
// Usage:
//
//	cachesweep [-ops N] [-seed N]
//	           [-trace FILE] [-metrics FILE] [-profile FILE] [-heartbeat DUR]
//	           [-attr FILE] [-attr-exact] [-attr-top N]
//
// The sweeper is purely functional (no timing model), so observability
// artifacts use the instruction count as the clock: trace timestamps are
// instructions (~cycles at the uniprocessor's ~1 CPI) and the folded
// profile attributes instructions to code components. -attr attributes at
// the reference level (every line touched), not the miss level: there is
// no coherence protocol on one processor, so the report's value here is
// the hot-object table, not the sharing patterns.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
)

// appFlags is the full flag surface; registerFlags keeps it testable (the
// flag-parity test registers onto a scratch FlagSet).
type appFlags struct {
	ops, warm, fixed *int
	seed             *uint64
	mode             *string
	ofl              obs.Flags
}

func registerFlags(fs *flag.FlagSet) *appFlags {
	af := &appFlags{
		ops:   fs.Int("ops", 600, "measured operations per thread"),
		warm:  fs.Int("warm", 120, "warm-up operations per thread"),
		seed:  fs.Uint64("seed", 20030208, "simulation seed"),
		mode:  fs.String("mode", "size", "swept dimension: size, assoc, or block"),
		fixed: fs.Int("fixed", 256<<10, "cache size in bytes for assoc/block modes"),
	}
	af.ofl.Register(fs)
	return af
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam; it returns the process
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cachesweep", flag.ContinueOnError)
	af := registerFlags(fs)
	return core.Main(fs, args, &af.ofl, stdout, stderr, func(sess *core.Session) error {
		return sweep(sess, af, stdout, stderr)
	})
}

// sweep runs the requested cache sweeps and prints the miss-rate table.
func sweep(sess *core.Session, af *appFlags, stdout, stderr io.Writer) error {
	ofl, mode := &af.ofl, *af.mode
	var gm core.GeometryMode
	var dim string
	switch mode {
	case "size":
		gm, dim = core.SweepSize, "size"
	case "assoc":
		gm, dim = core.SweepAssoc, "ways"
	case "block":
		gm, dim = core.SweepBlock, "block"
	default:
		return &core.ExitError{Err: fmt.Errorf("unknown -mode %q; use size, assoc, or block", mode)}
	}
	if err := checkFlags(af); err != nil {
		return &core.ExitError{Err: err}
	}
	if ofl.LatencyEnabled() {
		// The sweeper has no timing model, so there is no request latency to
		// measure; accept-and-warn keeps shared flag sets usable across tools.
		fmt.Fprintln(stderr, "cachesweep: -latency/-slo ignored (trace-driven sweep has no timing model)")
		ofl.Latency, ofl.SLO = "", ""
	}
	if ofl.Flight != "on" && ofl.FlightEnabled() {
		// Same accept-and-warn policy for the flight recorder: the sweeper has
		// no run loop (and no simulated clock) to tick a black box with.
		fmt.Fprintln(stderr, "cachesweep: -flight ignored (trace-driven sweep has no run loop to record)")
	}

	// The workload configurations run concurrently, each with its own
	// observer; artifacts merge at the end, in creation order.
	o := core.SweepOpts{WarmupOps: *af.warm, MeasureOps: *af.ops, Seed: *af.seed}
	if ofl.Enabled() {
		o.Observe = sess.SweepObserver
	}
	sched := core.NewScheduler(core.DefaultWorkers())
	sched.Progress = sess.Heartbeat()
	cs := core.ScheduleCacheSweeps(sched, o, gm, *af.fixed)
	sched.Wait()

	fmt.Fprintf(stdout, "misses per 1000 instructions, sweeping %s\n", dim)
	fmt.Fprintf(stdout, "%10s", dim)
	for _, r := range cs.Results {
		fmt.Fprintf(stdout, " | %10s-I %10s-D", r.Label, r.Label)
	}
	fmt.Fprintln(stdout)
	for i := range cs.Results[0].ICurve {
		switch mode {
		case "assoc":
			fmt.Fprintf(stdout, "%9dw", 1<<uint(i))
		case "block":
			fmt.Fprintf(stdout, "%9dB", 16<<uint(i))
		default:
			fmt.Fprintf(stdout, "%8dKB", cs.Results[0].ICurve[i].SizeBytes/1024)
		}
		for _, r := range cs.Results {
			fmt.Fprintf(stdout, " | %12.3f %12.3f", r.ICurve[i].MissesPer1000, r.DCurve[i].MissesPer1000)
		}
		fmt.Fprintln(stdout)
	}

	return sess.Finish([]uint64{*af.seed}, map[string]any{
		"warmup_ops": *af.warm, "measure_ops": *af.ops,
		"mode": mode, "fixed_bytes": *af.fixed,
	})
}

// checkFlags rejects the flag values no sweep can run: -fixed must give
// every geometry of the associativity and block ladders whole sets (a
// power of two of at least 1 KiB, their largest set: 16 ways of 64 B, 4
// ways of 256 B), and there must be operations to measure.
func checkFlags(af *appFlags) error {
	if fixed := *af.fixed; *af.mode != "size" && (fixed < 1<<10 || fixed&(fixed-1) != 0) {
		return fmt.Errorf("-fixed %d: want a power of two of at least 1024 bytes", fixed)
	}
	if *af.ops <= 0 {
		return fmt.Errorf("-ops %d: want at least one measured operation", *af.ops)
	}
	if *af.warm < 0 {
		return fmt.Errorf("-warm %d: want zero or more warm-up operations", *af.warm)
	}
	return nil
}
