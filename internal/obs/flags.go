package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/obs/attr"
)

// Flags bundles the standard observability command-line options so every
// driver command wires them uniformly:
//
//	-trace FILE      Chrome trace_event JSON (Perfetto / chrome://tracing)
//	-metrics FILE    metrics-registry snapshot ("-" = stdout)
//	-profile FILE    folded-stack simulated-cycle profile
//	-attr FILE       memory-event attribution report JSON ("-" = stdout)
//	-attr-exact      track every line instead of sampling (more memory)
//	-attr-top N      rows per hot-line / hot-object table
//	-inspect ADDR    serve live metrics/attribution/status over HTTP
//	-heartbeat DUR   periodic progress line on stderr
//	-latency FILE    request-latency/SLO report JSON ("-" = stdout)
//	-slo SPEC        latency/error objectives, e.g. "p99<=40ms,err<=2%"
//	-latency-interval N  latency time-series bin width in simulated cycles
//	-flight MODE     always-on flight recorder: "on", "off", or a dump dir
//	-flight-events N flight-recorder ring capacity (events)
//	-flight-window N flight-recorder dump window in simulated cycles
//	-cpuprofile FILE Go pprof CPU profile of the simulator process
//	-memprofile FILE Go pprof heap profile written at exit
//
// The simulated-cycle profiler (-profile) answers "where does simulated
// time go"; the host profiles answer "where does the simulator's own time
// go", which is what the performance-regression harness (cmd/perfcheck)
// digs into when a benchmark moves.
type Flags struct {
	Trace           string
	Metrics         string
	Profile         string
	Attr            string
	AttrExact       bool
	AttrTop         int
	Inspect         string
	Heartbeat       time.Duration
	Latency         string
	SLO             string
	LatencyInterval uint64
	Flight          string
	FlightEvents    int
	FlightWindow    uint64
	CPUProfile      string
	MemProfile      string

	// Stdout receives the artifacts written to "-" (nil = os.Stdout); it is
	// not a flag, so drivers behind a testable seam can redirect it.
	Stdout io.Writer

	cpuOut *os.File // the running -cpuprofile
}

// Register installs the flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace_event JSON file (load in Perfetto or chrome://tracing)")
	fs.StringVar(&f.Metrics, "metrics", "", `write the metrics-registry snapshot to this file ("-" = stdout)`)
	fs.StringVar(&f.Profile, "profile", "", "write a folded-stack simulated-cycle profile (flamegraph.pl / speedscope)")
	fs.StringVar(&f.Attr, "attr", "", `write the memory-event attribution report JSON to this file ("-" = stdout)`)
	fs.BoolVar(&f.AttrExact, "attr-exact", false, "attribute every cache line instead of a deterministic sample (unbounded memory)")
	fs.IntVar(&f.AttrTop, "attr-top", 20, "rows in the attribution hot-line and hot-object tables")
	fs.StringVar(&f.Inspect, "inspect", "", `serve live metrics, attribution, and status over HTTP on this address (e.g. ":8970")`)
	fs.DurationVar(&f.Heartbeat, "heartbeat", 0, "print a progress line every interval (0 = off)")
	fs.StringVar(&f.Latency, "latency", "", `write the request-latency/SLO report JSON to this file ("-" = stdout)`)
	fs.StringVar(&f.SLO, "slo", "", `latency/error objectives per interval, e.g. "p99<=40ms,neworder:p95<=20ms,err<=2%"`)
	fs.Uint64Var(&f.LatencyInterval, "latency-interval", 0, "latency time-series bin width in simulated cycles (0 = default 5M, 20 ms)")
	fs.StringVar(&f.Flight, "flight", "on", `always-on flight recorder: "on" (dump post-mortem bundles to the current directory on triggers), "off", or a dump directory`)
	fs.IntVar(&f.FlightEvents, "flight-events", 0, "flight-recorder ring capacity in events (0 = default 65536)")
	fs.Uint64Var(&f.FlightWindow, "flight-window", 0, "flight-recorder dump window in simulated cycles (0 = default 250M, 1 simulated second)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a Go pprof CPU profile of the simulator process")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a Go pprof heap profile at exit")
}

// StandardFlagNames lists the flag names Register installs. Driver commands
// assert against it in their flag-parity tests, so a new observability flag
// added here fails every driver that forgets to wire it.
func StandardFlagNames() []string {
	return []string{
		"trace", "metrics", "profile", "attr", "attr-exact", "attr-top",
		"inspect", "heartbeat", "latency", "slo", "latency-interval",
		"flight", "flight-events", "flight-window", "cpuprofile", "memprofile",
	}
}

// StartHostProfile begins the -cpuprofile CPU profile, if requested. Call
// StopHostProfile before exit.
func (f *Flags) StartHostProfile() error {
	if f.CPUProfile == "" {
		return nil
	}
	out, err := os.Create(f.CPUProfile)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	f.cpuOut = out
	return nil
}

// StopHostProfile ends the CPU profile and writes the -memprofile heap
// profile, if either was requested. Safe to call when nothing was started.
func (f *Flags) StopHostProfile() {
	if f.cpuOut != nil {
		pprof.StopCPUProfile()
		f.cpuOut.Close()
		f.cpuOut = nil
	}
	if f.MemProfile == "" {
		return
	}
	out, err := os.Create(f.MemProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		return
	}
	defer out.Close()
	runtime.GC() // settle allocations so the heap profile reflects live data
	if err := pprof.WriteHeapProfile(out); err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
	}
}

// FlightEnabled reports whether the flight recorder is armed. It is
// deliberately not part of Enabled(): the recorder is on by default, and
// Enabled() gates expensive extra work (observed figure runs, end-of-run
// artifacts) that an always-on black box must not trigger.
func (f *Flags) FlightEnabled() bool {
	return f.Flight != "off"
}

// FlightDir returns the directory flight-recorder dumps land in.
func (f *Flags) FlightDir() string {
	if f.Flight == "" || f.Flight == "on" || f.Flight == "off" {
		return "."
	}
	return f.Flight
}

// Enabled reports whether any artifact was requested (the heartbeat alone
// does not need an observer).
func (f *Flags) Enabled() bool {
	return f.Trace != "" || f.Metrics != "" || f.Profile != "" || f.Attr != "" || f.Inspect != "" ||
		f.LatencyEnabled()
}

// LatencyEnabled reports whether request-latency tracking was requested —
// by asking for the report artifact or by declaring objectives.
func (f *Flags) LatencyEnabled() bool {
	return f.Latency != "" || f.SLO != ""
}

// NewObserver builds an observer carrying only the requested parts — an
// artifact that was not asked for keeps its nil (zero-overhead) path. pid
// keeps multiple observers apart on a merged trace timeline.
func (f *Flags) NewObserver(pid int) *Observer {
	ob := &Observer{}
	if f.Trace != "" {
		ob.Tracer = NewTracer()
		ob.Tracer.Pid = pid
		// The trace spills beside its artifact, on the disk meant for it.
		ob.Tracer.spillDir = filepath.Dir(f.Trace)
	}
	if f.Metrics != "" || f.Inspect != "" {
		ob.Registry = NewRegistry()
	}
	if f.Profile != "" {
		ob.Profiler = NewProfiler()
	}
	if f.Attr != "" || f.Inspect != "" {
		ob.Attr = attr.NewCollector(attr.Options{Exact: f.AttrExact})
	}
	return ob
}

// WriteArtifacts writes every requested artifact from the given observers
// (one per observed run, with labels naming them in metrics output), then a
// run manifest next to each produced file. snaps supplies the metrics
// snapshot per observer; a nil entry falls back to a live registry
// snapshot. The manifest's Outputs field is filled in here.
//
// File artifacts are all staged before any is published, so a failure
// while writing any of them publishes none.
func (f *Flags) WriteArtifacts(labels []string, observers []*Observer, snaps []*Snapshot, m *Manifest) error {
	var outputs []string
	var staged []*AtomicFile
	defer func() {
		for _, w := range staged {
			w.Abort() // a no-op for a published file
		}
	}()
	// emit writes one artifact: to stdout when path is "-" and the artifact
	// allows it, else to a staged file that is published, with a manifest,
	// once every artifact is written.
	emit := func(path string, dashIsStdout bool, write func(io.Writer) error) error {
		if dashIsStdout && path == "-" {
			return write(f.stdout())
		}
		w, err := AtomicCreate(path, 0o644)
		if err != nil {
			return err
		}
		staged = append(staged, w)
		if err := write(w); err != nil {
			return err
		}
		outputs = append(outputs, path)
		return nil
	}

	if f.Trace != "" {
		var trs []*Tracer
		for _, ob := range observers {
			if ob != nil {
				trs = append(trs, ob.Tracer)
			}
		}
		err := emit(f.Trace, false, func(w io.Writer) error { return WriteChromeTrace(w, trs...) })
		// The artifact is the tracers' last reader: release their spills.
		for _, tr := range trs {
			tr.closeSpill()
		}
		if err != nil {
			return err
		}
		// A capped trace is silently truncated otherwise; say so.
		for i, tr := range trs {
			if n := tr.Dropped(); n > 0 {
				fmt.Fprintf(os.Stderr, "obs: trace %q run %d dropped %d events past the %d-event cap\n",
					f.Trace, i, n, DefaultMaxEvents)
			}
		}
	}

	if f.Metrics != "" {
		var buf bytes.Buffer
		for i, ob := range observers {
			if ob == nil || ob.Registry == nil {
				continue
			}
			snap := ob.Registry.Snapshot()
			if i < len(snaps) && snaps[i] != nil {
				snap = snaps[i]
			}
			if i < len(labels) {
				fmt.Fprintf(&buf, "== %s ==\n", labels[i])
			}
			snap.WriteTo(&buf)
			buf.WriteByte('\n')
		}
		if err := emit(f.Metrics, true, writeBytes(buf.Bytes())); err != nil {
			return err
		}
	}

	if f.Profile != "" {
		err := emit(f.Profile, false, func(w io.Writer) error {
			for _, ob := range observers {
				if ob == nil {
					continue
				}
				if err := ob.Profiler.WriteFolded(w); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	if f.Attr != "" {
		buf, err := byLabel(labels, observers, func(ob *Observer) any {
			if ob.Attr == nil {
				return nil
			}
			return ob.Attr.BuildReport(f.AttrTop)
		})
		if err == nil {
			err = emit(f.Attr, true, writeBytes(buf))
		}
		if err != nil {
			return err
		}
	}

	if f.Latency != "" {
		buf, err := byLabel(labels, observers, func(ob *Observer) any {
			if ob.LatencyReport == nil {
				return nil
			}
			return json.RawMessage(ob.LatencyReport())
		})
		if err == nil {
			err = emit(f.Latency, true, writeBytes(buf))
		}
		if err != nil {
			return err
		}
	}

	for _, w := range staged {
		if err := w.Close(); err != nil {
			return err
		}
	}
	if m != nil {
		m.Outputs = outputs
		for _, p := range outputs {
			if err := WriteManifest(p+".manifest.json", *m); err != nil {
				return err
			}
		}
	}
	return nil
}

// byLabel renders one JSON object keyed by run label, so a sweep's reports
// land in a single machine-readable file; report renders one observer's
// entry (nil skips it).
func byLabel(labels []string, observers []*Observer, report func(*Observer) any) ([]byte, error) {
	reports := make(map[string]any)
	for i, ob := range observers {
		if ob == nil {
			continue
		}
		r := report(ob)
		if r == nil {
			continue
		}
		label := fmt.Sprintf("run%d", i)
		if i < len(labels) && labels[i] != "" {
			label = labels[i]
		}
		reports[label] = r
	}
	buf, err := json.MarshalIndent(reports, "", "  ")
	return append(buf, '\n'), err
}

// writeBytes is an emit writer for an already-rendered artifact.
func writeBytes(buf []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	}
}

// stdout is where "-" artifacts go.
func (f *Flags) stdout() io.Writer {
	if f.Stdout != nil {
		return f.Stdout
	}
	return os.Stdout
}
