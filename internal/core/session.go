package core

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flightrec"
)

// Session is one driver invocation's run harness, built from the standard
// observability flags plus a label naming the command. It owns the host
// profile, the heartbeat, the -inspect server, and every run's observer,
// flight recorder, and latency collector; it writes the artifacts with
// their manifest and reports the flight recorders' summaries at the end.
// A driver keeps only its parameters and its report:
//
//	return core.Main(fs, args, &af.ofl, stdout, stderr, func(s *core.Session) error {
//		r, err := s.Measure("SPECjbb", spec)
//		... print the report from r.Sys ...
//		return s.Finish(seeds, opts)
//	})
type Session struct {
	// Label names the command on the heartbeat, the inspector, and flight
	// dumps; Command is recorded in manifests (default Label).
	Label   string
	Command string

	flags  *obs.Flags
	args   []string
	stderr io.Writer
	start  time.Time
	hb     *obs.Heartbeat
	insp   *obs.Inspector

	mu   sync.Mutex // sweep configurations create observers concurrently
	runs []*Run
	recs []*flightrec.Recorder
}

// Main runs one driver invocation behind a testable seam: it parses args
// into fs (which registered the observability flags f), opens a
// Session labelled with fs's name around body, and returns the exit code —
// 2 for bad flags or an *ExitError, or 1 for any other error, which is
// printed as "name: err" on stderr.
func Main(fs *flag.FlagSet, args []string, f *obs.Flags, stdout, stderr io.Writer, body func(*Session) error) int {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := NewSession(fs.Name(), f, args, stdout, stderr)
	if err == nil {
		defer s.Close()
		err = body(s)
	}
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
	var ee *ExitError
	if errors.As(err, &ee) {
		return 2
	}
	return 1
}

// ExitError ends a driver with exit code 2, as a bad flag does: an
// unknown study or figure, or a tripped watchdog.
type ExitError struct{ Err error }

func (e *ExitError) Error() string { return e.Err.Error() }

// NewSession validates -slo, then starts the host profile, the heartbeat,
// and (with -inspect) the inspection server. Artifacts the flags send to
// "-" go to stdout; the heartbeat and notices go to stderr. Close the
// session when the driver is done.
func NewSession(label string, f *obs.Flags, args []string, stdout, stderr io.Writer) (*Session, error) {
	if _, err := NewLatencyCollector(f); err != nil {
		return nil, err
	}
	if err := f.StartHostProfile(); err != nil {
		return nil, err
	}
	f.Stdout = stdout
	s := &Session{Label: label, Command: label, flags: f, args: args, stderr: stderr, start: time.Now()}
	s.hb = obs.StartHeartbeat(stderr, label, f.Heartbeat)
	if f.Inspect != "" {
		in, err := obs.StartInspector(f.Inspect, label, s.hb)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("starting inspector: %w", err)
		}
		s.insp = in
		fmt.Fprintf(stderr, "inspector listening on http://%s\n", in.Addr())
	}
	return s, nil
}

// Close stops the inspector and the heartbeat (printing its final line)
// and finishes the host profile. It is idempotent.
func (s *Session) Close() {
	s.insp.Close()
	s.hb.Stop()
	s.flags.StopHostProfile()
}

// Heartbeat is the session's progress reporter (nil without -heartbeat),
// for sweeps to credit their completed cells to.
func (s *Session) Heartbeat() *obs.Heartbeat { return s.hb }

// Inspector is the session's -inspect server (nil without -inspect).
func (s *Session) Inspector() *obs.Inspector { return s.insp }

// newRun prepares one run's attachments from the flags: an observer
// carrying the requested artifacts, the flight recorder (on by default,
// dumping under flightLabel), and a latency collector under -latency/-slo.
// Finish writes its artifacts under label.
func (s *Session) newRun(label, flightLabel string) *Run {
	rt, _ := NewLatencyCollector(s.flags) // NewSession validated -slo
	s.mu.Lock()
	defer s.mu.Unlock()
	var ob *obs.Observer
	if s.flags.Enabled() {
		ob = s.flags.NewObserver(len(s.runs))
		ob.Inspect = s.insp
	}
	ob, rec := s.flight(flightLabel, ob)
	r := &Run{Label: label, Observer: ob, Latency: rt, Flight: rec, Progress: s.hb}
	s.runs = append(s.runs, r)
	return r
}

// flight builds the -flight recorder for one run, growing ob as the
// recorder needs (see flightrec.FromFlags), and connects it to the
// inspector. The caller holds s.mu.
func (s *Session) flight(label string, ob *obs.Observer) (*obs.Observer, *flightrec.Recorder) {
	ob, rec := flightrec.FromFlags(s.flags, label, ob)
	if rec != nil {
		rec.SetInspector(s.insp)
		s.recs = append(s.recs, rec)
	}
	return ob, rec
}

// Recorder builds a flight recorder for a loop that is not an engine run
// (loadsim's open cluster); Finish reports its summary.
func (s *Session) Recorder(label string) *flightrec.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, rec := s.flight(label, nil)
	return rec
}

// SweepObserver is a SweepOpts.Observe callback: every concurrently running
// sweep configuration gets its own observer, and Finish merges their
// artifacts in creation order.
func (s *Session) SweepObserver(label string) *obs.Observer {
	s.mu.Lock()
	defer s.mu.Unlock()
	ob := s.flags.NewObserver(len(s.runs))
	s.runs = append(s.runs, &Run{Label: label, Observer: ob})
	return ob
}

// RunSpec is one measured run as a single-run driver's flags describe it.
// The driver fixes Params.Kind (and Scale); Register fills in the rest.
type RunSpec struct {
	Params          SystemParams
	Warmup, Measure uint64
	// Checkpoint, when set, is where resumable checkpoints are saved, every
	// CheckpointEvery cycles of the measurement window and at its end.
	Checkpoint      string
	CheckpointEvery uint64
	// Resume, when set, names a checkpoint to continue: Params and Warmup
	// come from it instead, the run replays from cycle 0 with every
	// attachment, and the replay is verified at the checkpoint's cycle.
	Resume string
}

// Register installs the single-run drivers' shared run-control flags on fs,
// writing into s; procsHelp describes -p.
func (s *RunSpec) Register(fs *flag.FlagSet, procsHelp string) {
	fs.IntVar(&s.Params.Processors, "p", 8, procsHelp)
	fs.Uint64Var(&s.Params.Seed, "seed", 20030208, "simulation seed")
	fs.Uint64Var(&s.Warmup, "warmup", 12_000_000, "warm-up cycles (excluded)")
	fs.Uint64Var(&s.Measure, "measure", 50_000_000, "measurement window in cycles")
	fs.Uint64Var(&s.Params.WatchdogCycles, "watchdog", 0, "abort when the run makes no progress for N simulated cycles (0 = off)")
	fs.StringVar(&s.Checkpoint, "checkpoint", "", "write a resumable checkpoint to FILE")
	fs.Uint64Var(&s.CheckpointEvery, "checkpoint-every", 0, "checkpoint cadence in cycles (0 = only at the end)")
	fs.StringVar(&s.Resume, "resume", "", "resume from checkpoint FILE (run parameters come from the checkpoint)")
	s.Params.MemModel.RegisterFlag(fs)
}

// ErrEmptyWindow rejects a run with no measurement window: every rate it
// would report divides by zero.
var ErrEmptyWindow = errors.New("empty measurement window (-measure 0)")

// Measure builds spec's system (or the checkpoint's, with spec.Resume),
// attaches the session's facilities under label, and drives it through
// Run.Measure. Parameters BuildSystem cannot build, and an empty
// measurement window, are an error. A tripped watchdog ends the run with
// exit code 2 and its diagnostic.
func (s *Session) Measure(label string, spec RunSpec) (*Run, error) {
	if spec.Measure == 0 {
		return nil, ErrEmptyWindow
	}
	var cp *Checkpoint
	if spec.Resume != "" {
		c, err := LoadCheckpoint(spec.Resume)
		if err != nil {
			return nil, err
		}
		if err := c.Params.validate(); err != nil {
			return nil, fmt.Errorf("checkpoint %s: %w", spec.Resume, err)
		}
		fmt.Fprintf(s.stderr, "resuming %s run at cycle %d (verifying replay)\n", c.Params.Kind, c.Cycle)
		cp, spec.Params, spec.Warmup = &c, c.Params, c.Warmup
	} else if err := spec.Params.validate(); err != nil {
		return nil, err
	}
	var plan *CheckpointPlan
	if spec.Checkpoint != "" {
		plan = &CheckpointPlan{Path: spec.Checkpoint, Every: spec.CheckpointEvery, Command: s.Label}
	}
	r := s.newRun(label, s.Label)
	r.attach(BuildSystem(spec.Params))
	r.replay = cp
	if err := r.Measure(spec.Warmup, spec.Measure, plan); err != nil {
		return nil, err
	}
	if wd := r.Sys.Engine.WatchdogTripped(); wd != nil {
		return nil, &ExitError{Err: fmt.Errorf("watchdog tripped:\n%s", wd)}
	}
	return r, nil
}

// ObservePoints runs one fully observed cell per workload, cell(kind), when
// the flags ask for any artifact: the figure-style drivers' study cells stay
// unobserved (and recorder-free), and these two runs carry the trace,
// metrics, profile, attribution, latency, and flight recorder. They run in
// the standard slices, so the live attachments see them. Workloads are kept
// apart by pid on the trace timeline and by scope in the folded profile.
func (s *Session) ObservePoints(cell func(Kind) Cell) error {
	if !s.flags.Enabled() {
		return nil
	}
	for _, kind := range []Kind{SPECjbb, ECperf} {
		c := cell(kind)
		fmt.Fprintf(s.stderr, "observed run: %s, %d processors, seed %d...\n", kind, c.Params.Processors, c.Params.Seed)
		s.insp.SetNote(fmt.Sprintf("observed run: %s, %d processors", kind, c.Params.Processors))
		r := s.newRun(kind.String(), s.Label+"-"+kind.String())
		r.attach(BuildSystem(c.Params))
		if err := r.Measure(c.Warmup, c.Measure, nil); err != nil {
			return err
		}
	}
	return nil
}

// FaultExperiment runs the fault experiment with the session's attachments
// on the faulted run, whose artifacts Finish writes under label. Run
// parameters BuildSystem cannot build are an error, found before either run
// starts.
func (s *Session) FaultExperiment(label string, o FaultRunOpts) (FaultRunResult, error) {
	if o.MeasureCycles == 0 {
		return FaultRunResult{}, ErrEmptyWindow
	}
	if err := o.params().validate(); err != nil {
		return FaultRunResult{}, err
	}
	return runFaultExperiment(o, s.newRun(label, s.Label)), nil
}

// Finish writes the artifacts the flags asked for from every run, with a
// manifest recording the seeds and option structs beside each file, then
// prints the flight recorders' summaries on stderr.
func (s *Session) Finish(seeds []uint64, opts map[string]any) error {
	if s.flags.Enabled() && len(s.runs) > 0 {
		labels := make([]string, len(s.runs))
		observers := make([]*obs.Observer, len(s.runs))
		snaps := make([]*obs.Snapshot, len(s.runs))
		for i, r := range s.runs {
			labels[i], observers[i], snaps[i] = r.Label, r.Observer, r.Delta
		}
		m := &obs.Manifest{Command: s.Command, Args: s.args, Git: obs.GitDescribe(), Started: s.start,
			Seeds: seeds, Opts: opts, WallSeconds: time.Since(s.start).Seconds()}
		if err := s.flags.WriteArtifacts(labels, observers, snaps, m); err != nil {
			return fmt.Errorf("writing observability artifacts: %w", err)
		}
	}
	for _, rec := range s.recs {
		if sum := rec.Summary(); sum != "" {
			fmt.Fprintln(s.stderr, sum)
		}
	}
	return nil
}
