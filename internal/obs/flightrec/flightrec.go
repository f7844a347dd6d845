// Package flightrec is the simulator's always-on black box: a bounded
// flight recorder that keeps the recent past — a ring of trace events, the
// newest periodic metrics-registry snapshot, and the in-flight request
// table — in simulated time, and writes an atomic post-mortem bundle when
// something goes wrong.
//
// The rest of the observability stack answers questions that were asked up
// front: -trace, -metrics, and -latency produce end-of-run artifacts for
// runs someone decided to watch. The flight recorder answers the other
// question — "what just happened?" — for runs nobody was watching. It is on
// by default, so it must be strictly passive (engine results bit-identical
// with it on or off: it only ever reads simulated state) and strictly
// bounded (the ring evicts, one metrics snapshot is kept, dumps are
// capped).
//
// Triggers: entry into a scheduled fault window, an SLO budget-burn
// threshold crossing, the deadlock watchdog firing, an overload brown-out
// escalation, or an explicit /flight/dump request on the -inspect server.
// Each dump is tagged with its trigger and contains the last window of
// simulated time as a Chrome trace, the metrics interval delta, top
// attribution lines when attribution is live, and the in-flight span table.
//
// Everything in a bundle derives from simulated state, so the same seed
// and trigger produce byte-identical dumps.
package flightrec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/obs/reqtrace"
)

// Defaults for Options' zero values, and the recorder's fixed limits.
const (
	// DefaultRingEvents bounds the event ring: 96 B/event, 6 MiB when
	// full.
	DefaultRingEvents = 65536
	// DefaultWindowCycles is one simulated second at the 250 MHz clock.
	DefaultWindowCycles = 250_000_000
	// DefaultBurnThreshold is the per-interval SLO burn rate that triggers
	// a dump (2 = the interval spent its error budget twice over).
	DefaultBurnThreshold = 2.0
	// DefaultMaxDumps caps bundles per run so a pathological run cannot
	// fill the disk; later triggers are counted, not written.
	DefaultMaxDumps = 8
)

// Options configures a recorder. Zero values select the defaults above;
// Dir defaults to the current directory.
type Options struct {
	// Dir is the directory dump bundles are written to.
	Dir string
	// Label names the run in bundle contents and file names.
	Label string
	// RingEvents caps the trace-event ring.
	RingEvents int
	// WindowCycles is the simulated-time span a dump's trace covers; a
	// metrics snapshot is taken every quarter of it, but at most once a
	// cycle.
	WindowCycles uint64
}

func (o Options) withDefaults() Options {
	if o.Dir == "" {
		o.Dir = "."
	}
	if o.Label == "" {
		o.Label = "run"
	}
	if o.RingEvents <= 0 {
		o.RingEvents = DefaultRingEvents
	}
	if o.WindowCycles == 0 {
		o.WindowCycles = DefaultWindowCycles
	}
	return o
}

// DumpInfo describes one written bundle.
type DumpInfo struct {
	Seq     int    `json:"seq"`
	Trigger string `json:"trigger"`
	Cycle   uint64 `json:"cycle"`
	Path    string `json:"path"`
}

// Recorder is the black box. A nil *Recorder is valid and disabled — every
// method returns immediately — so call sites pay one nil check when the
// recorder is off.
//
// Like the rest of the observability stack it is single-threaded: the
// simulation thread owns it and calls Tick at slice boundaries.
type Recorder struct {
	opt  Options
	ring *obs.EventRing
	reg  *obs.Registry
	attr *attr.Collector
	coll *reqtrace.Collector
	insp *obs.Inspector

	procNames map[int]string

	windows []fault.Event
	nextWin int

	// snap is the newest periodic metrics snapshot, taken at snapCycle;
	// dumps report the registry's change since it. Snapshots are due every
	// snapEvery cycles, from nextSnap on.
	snap      *obs.Snapshot
	snapCycle uint64
	snapEvery uint64
	nextSnap  uint64

	lastBin      int
	lastBurnDump uint64
	burnDumped   bool

	wdDumped   bool
	brownLevel int

	dumps   []DumpInfo
	skipped int
	err     error
}

// New returns a recorder with an empty event ring.
func New(opt Options) *Recorder {
	o := opt.withDefaults()
	every := max(o.WindowCycles/4, 1)
	return &Recorder{
		opt:       o,
		ring:      obs.NewEventRing(o.RingEvents),
		snapEvery: every,
		nextSnap:  every,
		procNames: map[int]string{
			0: o.Label,
		},
	}
}

// FromFlags builds the recorder the -flight flags ask for and binds it to
// the run's observer, growing the observer when the other flags alone did
// not create the surfaces the recorder needs: a tracer feeds the ring (a
// ring-only tracer is created when -trace was not given), and a registry
// backs the metrics snapshots. Returns the observer to use (never nil when
// the recorder is on) and the recorder (nil when -flight off).
func FromFlags(f *obs.Flags, label string, ob *obs.Observer) (*obs.Observer, *Recorder) {
	if !f.FlightEnabled() {
		return ob, nil
	}
	rec := New(Options{
		Dir:          f.FlightDir(),
		Label:        label,
		RingEvents:   f.FlightEvents,
		WindowCycles: f.FlightWindow,
	})
	if ob == nil {
		ob = &obs.Observer{}
	}
	if ob.Tracer != nil {
		ob.Tracer.SetRing(rec.ring)
	} else {
		ob.Tracer = obs.NewRingTracer(rec.ring)
	}
	if ob.Registry == nil {
		ob.Registry = obs.NewRegistry()
	}
	rec.reg = ob.Registry
	rec.attr = ob.Attr
	return ob, rec
}

// SetCollector attaches the run's latency collector: its in-flight table
// joins dumps, and its interval burn rates feed the SLO trigger.
func (r *Recorder) SetCollector(c *reqtrace.Collector) {
	if r != nil {
		r.coll = c
	}
}

// SetSchedule arms the fault-window trigger: entering any scheduled window
// dumps once, tagged with the fault kind.
func (r *Recorder) SetSchedule(s *fault.Schedule) {
	if r == nil || s == nil {
		return
	}
	r.windows = append([]fault.Event(nil), s.Events...)
	sort.SliceStable(r.windows, func(i, j int) bool { return r.windows[i].At < r.windows[j].At })
	r.nextWin = 0
}

// SetInspector connects the -inspect server: the recorder publishes its
// status as the /flight page and honors /flight/dump requests at ticks.
func (r *Recorder) SetInspector(in *obs.Inspector) {
	if r != nil {
		r.insp = in
		r.publish(0)
	}
}

// Tick advances the recorder to simulated time now: takes due metrics
// snapshots, fires due triggers, and honors pending manual dump requests.
// The simulation thread calls it at slice boundaries.
func (r *Recorder) Tick(now uint64) {
	if r == nil {
		return
	}
	dirty := false
	if r.reg != nil && now >= r.nextSnap {
		r.snap, r.snapCycle = r.reg.Snapshot(), now
		// The next multiple of snapEvery after now, without stepping there.
		r.nextSnap = (now/r.snapEvery + 1) * r.snapEvery
		dirty = true
	}
	for r.nextWin < len(r.windows) && now >= r.windows[r.nextWin].At {
		w := r.windows[r.nextWin]
		r.nextWin++
		r.dump(now, "fault-"+w.Kind.String(),
			fmt.Sprintf("entered scheduled %s window [%d, %d) magnitude %g", w.Kind, w.At, w.End(), w.Magnitude))
		dirty = true
	}
	if r.coll != nil {
		done := r.coll.CompletedBins(now)
		for b := r.lastBin; b < done; b++ {
			burn := r.coll.BinBurn(b)
			if burn < DefaultBurnThreshold {
				continue
			}
			// One burn dump per window, not one per hot interval: a storm
			// spanning many intervals is one incident.
			if r.burnDumped && now < r.lastBurnDump+r.opt.WindowCycles {
				continue
			}
			r.burnDumped, r.lastBurnDump = true, now
			r.dump(now, "slo-burn", fmt.Sprintf("interval %d burn rate %.1fx budget", b, burn))
			dirty = true
		}
		r.lastBin = done
	}
	if r.insp.TakeDumpRequest() {
		r.dump(now, "manual", "/flight/dump request")
		dirty = true
	}
	if dirty {
		r.publish(now)
	}
}

// Watchdog dumps once for a tripped deadlock/stall watchdog; report is the
// watchdog's rendered diagnostic.
func (r *Recorder) Watchdog(cycle uint64, report string) {
	if r == nil || r.wdDumped {
		return
	}
	r.wdDumped = true
	r.dump(cycle, "watchdog", report)
	r.publish(cycle)
}

// Brownout reports the current brown-out shed level; an escalation past
// every previously seen level dumps, tagged with the step.
func (r *Recorder) Brownout(now uint64, level int) {
	if r == nil || level <= r.brownLevel {
		return
	}
	prev := r.brownLevel
	r.brownLevel = level
	r.dump(now, "brownout", fmt.Sprintf("shed level escalated %d -> %d", prev, level))
	r.publish(now)
}

// Dumps lists the bundles written so far.
func (r *Recorder) Dumps() []DumpInfo {
	if r == nil {
		return nil
	}
	return r.dumps
}

// Err returns the first dump-write error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	return r.err
}

// Summary renders a one-line end-of-run summary, or "" when nothing
// happened (no dumps, no errors) — the silent common case.
func (r *Recorder) Summary() string {
	if r == nil || (len(r.dumps) == 0 && r.skipped == 0 && r.err == nil) {
		return ""
	}
	var parts []string
	for _, d := range r.dumps {
		parts = append(parts, fmt.Sprintf("%s@%d -> %s", d.Trigger, d.Cycle, d.Path))
	}
	s := fmt.Sprintf("flight recorder: %d dump(s)", len(r.dumps))
	if len(parts) > 0 {
		s += ": " + strings.Join(parts, ", ")
	}
	if r.skipped > 0 {
		s += fmt.Sprintf(" (%d trigger(s) past the %d-dump cap not written)", r.skipped, DefaultMaxDumps)
	}
	if r.err != nil {
		s += fmt.Sprintf(" (write error: %v)", r.err)
	}
	return s
}

// ringStats summarizes the ring's accounting in bundles and /flight.
type ringStats struct {
	Events  int    `json:"events"`
	Cap     int    `json:"cap"`
	Evicted uint64 `json:"evicted"`
	Total   uint64 `json:"total"`
}

// bundle is the dump's JSON shape. Every field derives from simulated
// state, so dumps are deterministic for a given seed and trigger.
type bundle struct {
	Label        string          `json:"label"`
	Seq          int             `json:"seq"`
	Trigger      string          `json:"trigger"`
	Reason       string          `json:"reason,omitempty"`
	Cycle        uint64          `json:"cycle"`
	WindowStart  uint64          `json:"window_start_cycle"`
	WindowCycles uint64          `json:"window_cycles"`
	Ring         ringStats       `json:"ring"`
	Trace        json.RawMessage `json:"trace,omitempty"`
	// Metrics is the full registry snapshot at the dump; MetricsDelta the
	// change since the newest periodic snapshot, DeltaCycles back.
	Metrics      string                  `json:"metrics,omitempty"`
	MetricsDelta string                  `json:"metrics_delta,omitempty"`
	DeltaCycles  uint64                  `json:"metrics_delta_cycles,omitempty"`
	InFlight     []reqtrace.InFlightSpan `json:"inflight,omitempty"`
	AttrTop      json.RawMessage         `json:"attr_top,omitempty"`
}

func (r *Recorder) dump(now uint64, trigger, reason string) {
	if len(r.dumps) >= DefaultMaxDumps {
		r.skipped++
		return
	}
	winStart := uint64(0)
	if now > r.opt.WindowCycles {
		winStart = now - r.opt.WindowCycles
	}
	b := bundle{
		Label:        r.opt.Label,
		Seq:          len(r.dumps),
		Trigger:      trigger,
		Reason:       reason,
		Cycle:        now,
		WindowStart:  winStart,
		WindowCycles: r.opt.WindowCycles,
		Ring: ringStats{
			Events: r.ring.Len(), Cap: r.ring.Cap(),
			Evicted: r.ring.Evicted(), Total: r.ring.Total(),
		},
		Trace:    json.RawMessage(obs.ChromeTraceWindow(r.faultSpans(winStart, now), r.ring, winStart, now, r.procNames)),
		InFlight: r.coll.InFlightTable(now),
	}
	if r.reg != nil {
		cur := r.reg.Snapshot()
		b.Metrics = snapText(cur)
		if r.snap != nil {
			b.MetricsDelta = snapText(cur.Delta(r.snap))
			b.DeltaCycles = now - r.snapCycle
		}
	}
	if r.attr != nil {
		if buf, err := json.Marshal(r.attr.BuildReport(10).HotLines); err == nil {
			b.AttrTop = buf
		}
	}

	buf, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		r.fail(err)
		return
	}
	buf = append(buf, '\n')
	path := filepath.Join(r.opt.Dir, fmt.Sprintf("%s-flight-%03d-%s.json", r.opt.Label, len(r.dumps), safeName(trigger)))
	if err := obs.AtomicWriteFile(path, buf, 0o644); err != nil {
		r.fail(err)
		return
	}
	r.dumps = append(r.dumps, DumpInfo{Seq: len(r.dumps), Trigger: trigger, Cycle: now, Path: path})
	fmt.Fprintf(os.Stderr, "flightrec: wrote %s (trigger %s, cycle %d)\n", path, trigger, now)
}

func (r *Recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// faultSpans re-synthesizes every scheduled fault window that overlaps
// [winStart, now] as a span, to lead a dump's trace ahead of the ring's
// events in the window: the windows were emitted on the trace at attach
// time and may long since have been evicted from the ring, but a
// post-mortem must always show which faults were active.
func (r *Recorder) faultSpans(winStart, now uint64) []obs.Event {
	var out []obs.Event
	for _, w := range r.windows {
		if w.End() <= winStart || w.At > now {
			continue
		}
		end := w.End()
		if end > now {
			end = now
		}
		out = append(out, obs.Event{
			Name: "fault.window", Comp: obs.CompFault, Phase: 'X', Tid: -1,
			Time: w.At, Dur: end - w.At,
			Args: []obs.Arg{obs.Str("kind", w.Kind.String()), obs.F64("magnitude", w.Magnitude)},
		})
	}
	return out
}

// statusDoc is the /flight page document.
type statusDoc struct {
	Label     string     `json:"label"`
	Cycle     uint64     `json:"cycle"`
	Ring      ringStats  `json:"ring"`
	Snapshots int        `json:"snapshots_kept"`
	Dumps     []DumpInfo `json:"dumps"`
	Skipped   int        `json:"dumps_skipped,omitempty"`
}

func (r *Recorder) publish(now uint64) {
	if r.insp == nil {
		return
	}
	doc := statusDoc{
		Label: r.opt.Label,
		Cycle: now,
		Ring: ringStats{
			Events: r.ring.Len(), Cap: r.ring.Cap(),
			Evicted: r.ring.Evicted(), Total: r.ring.Total(),
		},
		Dumps:   r.dumps,
		Skipped: r.skipped,
	}
	if r.snap != nil {
		doc.Snapshots = 1
	}
	if doc.Dumps == nil {
		doc.Dumps = []DumpInfo{}
	}
	if buf, err := json.MarshalIndent(doc, "", "  "); err == nil {
		r.insp.SetFlight(append(buf, '\n'))
	}
}

// snapText renders a snapshot in the registry's aligned text form.
func snapText(s *obs.Snapshot) string {
	var b strings.Builder
	s.WriteTo(&b)
	return b.String()
}

// safeName keeps trigger tags filesystem-friendly.
func safeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, s)
}
