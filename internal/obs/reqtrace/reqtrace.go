// Package reqtrace is the request-centric latency layer of the simulator:
// per-request spans carried through the playback engine in simulated time,
// decomposed into phase segments, folded into HDR-style histograms per
// request class and per interval, and judged against service-level
// objectives with burn-rate accounting.
//
// The paper characterizes its middleware workloads by aggregate CPI, miss,
// and GC counters, but SPECjbb, ECperf, and Volano are transaction systems:
// their user-visible behavior is per-request latency. reqtrace closes that
// gap. The playback engine opens a span when it dispatches a recorded
// operation, charges every cycle the request spends — executing, stalled on
// the memory system, waiting for a monitor, on the wire, queued at the
// database, or frozen by a stop-the-world GC pause — to a phase of that
// span, and completes the span into the collector when the operation
// finishes.
//
// Like the rest of the observability layer, reqtrace is passive and
// deterministic: a nil *Collector is a valid, zero-cost default; an attached
// collector only reads simulated time and never perturbs scheduling or RNG
// draws, so a run with latency tracking on is cycle-identical to the same
// seed with it off.
package reqtrace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Phase indexes one segment class of a request span.
type Phase uint8

const (
	// PhaseCPU is retired instruction work (base cycles).
	PhaseCPU Phase = iota
	// PhaseMemStall is instruction- and data-stall cycles in the memory
	// hierarchy.
	PhaseMemStall
	// PhaseLockWait is time blocked on monitors, kernel spin locks, and
	// pool semaphores.
	PhaseLockWait
	// PhaseNet is wire time of synchronous calls (transfer + propagation),
	// plus the full round trip for co-simulated peers where the remote
	// breakdown lives on the other machine.
	PhaseNet
	// PhaseDBQueue is time queued at a remote tier waiting for a worker.
	PhaseDBQueue
	// PhaseDBService is remote-tier service time.
	PhaseDBService
	// PhaseGC is stop-the-world GC pause overlap: collections that froze
	// this request while it was in flight.
	PhaseGC
	// PhaseThink is recorded driver pacing/sleep time.
	PhaseThink
	// NumPhases bounds the phase enum.
	NumPhases
)

// phaseNames orders the JSON/report phase keys; keep in sync with the enum.
var phaseNames = [NumPhases]string{
	"cpu", "mem_stall", "lock_wait", "net", "db_queue", "db_service", "gc_pause", "think",
}

// String names the phase as used in reports.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Span is one in-flight request: its class, dispatch time, and the cycles
// charged to each phase so far. The engine owns a span from Begin to End.
type Span struct {
	class string
	start uint64
	seq   uint64
	phase [NumPhases]uint64
}

// Add charges cycles to one phase.
func (s *Span) Add(p Phase, cycles uint64) {
	if s == nil {
		return
	}
	s.phase[p] += cycles
}

// AddSplit charges an instruction segment: base cycles as CPU, the stall
// remainder as memory stall.
func (s *Span) AddSplit(base, stall uint64) {
	if s == nil {
		return
	}
	s.phase[PhaseCPU] += base
	s.phase[PhaseMemStall] += stall
}

// Options configures a collector.
type Options struct {
	// IntervalCycles is the width of the latency time-series bins (and the
	// SLO evaluation window). 0 selects DefaultIntervalCycles.
	IntervalCycles uint64
	// Objectives are evaluated per interval when the report is built.
	Objectives []Objective
}

// DefaultIntervalCycles is 20 ms of simulated time at the 250 MHz clock —
// long enough that a quiet interval still holds a quorum of requests, short
// enough that a single fault window spans several intervals.
const DefaultIntervalCycles = 5_000_000

// classAcc accumulates one request class over the whole measurement window.
type classAcc struct {
	hdr    obs.HDR
	total  uint64 // sum of span totals, for the unattributed remainder
	phases [NumPhases]uint64
}

// intervalAcc is one time-series bin: per-class latency histograms.
type intervalAcc struct {
	classes map[string]*obs.HDR
}

// Collector folds completed spans into per-class and per-interval
// histograms. Each run owns one collector: its engine's, or the open
// cluster's.
type Collector struct {
	opt     Options
	origin  uint64
	classes map[string]*classAcc
	bins    []*intervalAcc
	all     obs.HDR  // every tracked completion, for live heartbeat quantiles
	gcPause *obs.HDR // the engine's pause-length histogram; nil without one

	// seq numbers spans in Begin order; inflight indexes the spans opened
	// but not yet ended — the flight recorder's "what was running when it
	// went wrong" table. Size is bounded by the engine's actual request
	// concurrency (every span the engine opens, it ends).
	seq      uint64
	inflight map[uint64]*Span
}

// NewCollector returns an empty collector.
func NewCollector(opt Options) *Collector {
	if opt.IntervalCycles == 0 {
		opt.IntervalCycles = DefaultIntervalCycles
	}
	return &Collector{opt: opt, classes: make(map[string]*classAcc), inflight: make(map[uint64]*Span)}
}

// Tracks reports whether an operation gets a span: business operations plus
// the error classes the resilience layer demotes (shed admissions and
// retry-exhausted ".fail" operations), whose latency is exactly what an
// error-rate SLO is about. Unnamed bookkeeping ops and OS daemon filler do
// not get spans.
func (c *Collector) Tracks(op *trace.Op) bool {
	if c == nil || op == nil || op.Tag == "" {
		return false
	}
	return op.Business || IsErrorClass(op.Tag)
}

// IsErrorClass reports whether a request class counts as an error for SLO
// purposes: operations shed at admission and operations that exhausted
// their retries.
func IsErrorClass(class string) bool {
	return class == "shed" || strings.HasSuffix(class, ".fail")
}

// Begin opens a span for a tracked operation dispatched at start. It
// returns nil (a valid, inert span) for untracked operations.
func (c *Collector) Begin(op *trace.Op, start uint64) *Span {
	if !c.Tracks(op) {
		return nil
	}
	return c.open(&Span{class: op.Tag, start: start})
}

// open assigns the span its sequence number and registers it in-flight.
func (c *Collector) open(s *Span) *Span {
	c.seq++
	s.seq = c.seq
	c.inflight[s.seq] = s
	return s
}

// BeginClass opens a span for an explicitly named request class dispatched
// at start — the entry point for open-system simulations, whose requests
// are not trace operations. Like Begin, it is nil-safe on the collector,
// and the returned span is only an accumulator: nothing is recorded until
// End.
func (c *Collector) BeginClass(class string, start uint64) *Span {
	if c == nil || class == "" {
		return nil
	}
	return c.open(&Span{class: class, start: start})
}

// End completes a span at time end, folding it into the class and interval
// accumulators.
func (c *Collector) End(s *Span, end uint64) {
	if c == nil || s == nil {
		return
	}
	delete(c.inflight, s.seq)
	total := uint64(0)
	if end > s.start {
		total = end - s.start
	}
	acc := c.classes[s.class]
	if acc == nil {
		acc = &classAcc{}
		c.classes[s.class] = acc
	}
	acc.hdr.Record(total)
	acc.total += total
	for p, v := range s.phase {
		acc.phases[p] += v
	}
	c.all.Record(total)

	// Time-series bin by completion time relative to the measurement origin.
	at := uint64(0)
	if end > c.origin {
		at = end - c.origin
	}
	bin := int(at / c.opt.IntervalCycles)
	for len(c.bins) <= bin {
		c.bins = append(c.bins, &intervalAcc{classes: make(map[string]*obs.HDR)})
	}
	h := c.bins[bin].classes[s.class]
	if h == nil {
		h = &obs.HDR{}
		c.bins[bin].classes[s.class] = h
	}
	h.Record(total)
}

// BindGCPauses makes the report's jvm_gc_pause summary read h, the
// engine's stop-the-world pause-length histogram, which the engine records
// and resets; the collector keeps no copy. Pause *overlap* with in-flight
// requests is charged to their spans by the engine.
func (c *Collector) BindGCPauses(h *obs.HDR) {
	if c != nil {
		c.gcPause = h
	}
}

// Reset clears all accumulated spans and re-anchors the time series at
// origin — the warm-up/measurement boundary. Spans still in flight keep
// accumulating and complete into the fresh window, mirroring how the
// engine's own per-tag counters treat boundary-spanning operations.
func (c *Collector) Reset(origin uint64) {
	if c == nil {
		return
	}
	c.origin = origin
	c.classes = make(map[string]*classAcc)
	c.bins = nil
	c.all.Reset()
}

// InFlightSpan is one open request in the flight recorder's span table.
type InFlightSpan struct {
	Seq        uint64 `json:"seq"`
	Class      string `json:"class"`
	StartCycle uint64 `json:"start_cycle"`
	AgeCycles  uint64 `json:"age_cycles"`
	// Phases are the cycles charged so far, keyed by phase name (only
	// non-zero phases appear).
	Phases map[string]uint64 `json:"phases,omitempty"`
}

// InFlightTable snapshots every open span at time now, oldest (lowest
// sequence number) first — the post-mortem "what was running" view. The
// copy is deterministic: map order is erased by the seq sort.
func (c *Collector) InFlightTable(now uint64) []InFlightSpan {
	if c == nil || len(c.inflight) == 0 {
		return nil
	}
	out := make([]InFlightSpan, 0, len(c.inflight))
	for _, s := range c.inflight {
		e := InFlightSpan{Seq: s.seq, Class: s.class, StartCycle: s.start}
		if now > s.start {
			e.AgeCycles = now - s.start
		}
		for p, v := range s.phase {
			if v > 0 {
				if e.Phases == nil {
					e.Phases = make(map[string]uint64)
				}
				e.Phases[Phase(p).String()] = v
			}
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// LiveQuantiles returns the running p50/p99 across all tracked completions,
// for heartbeat lines.
func (c *Collector) LiveQuantiles() (p50, p99 uint64) {
	if c == nil || c.all.Count() == 0 {
		return 0, 0
	}
	return c.all.Quantile(0.50), c.all.Quantile(0.99)
}

// PhaseBreakdown is the per-phase cycle decomposition of a class, plus the
// scheduler/runnable remainder no phase claims (ready-queue time, engine
// slicing, clock skew).
type PhaseBreakdown struct {
	CPU       uint64 `json:"cpu"`
	MemStall  uint64 `json:"mem_stall"`
	LockWait  uint64 `json:"lock_wait"`
	Net       uint64 `json:"net"`
	DBQueue   uint64 `json:"db_queue"`
	DBService uint64 `json:"db_service"`
	GCPause   uint64 `json:"gc_pause"`
	Think     uint64 `json:"think"`
	Sched     uint64 `json:"sched_other"`
}

// ClassStats is the report entry for one request class.
type ClassStats struct {
	Class   string         `json:"class"`
	Error   bool           `json:"error_class,omitempty"`
	Latency obs.HDRSummary `json:"latency"`
	Phases  PhaseBreakdown `json:"phases"`
}

// IntervalClass is one class's digest inside a time-series bin.
type IntervalClass struct {
	Class string `json:"class"`
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50_cycles"`
	P99   uint64 `json:"p99_cycles"`
	P999  uint64 `json:"p999_cycles"`
	Max   uint64 `json:"max_cycles"`
}

// IntervalStats is one bin of the latency time series.
type IntervalStats struct {
	Index      int             `json:"index"`
	StartCycle uint64          `json:"start_cycle"`
	Classes    []IntervalClass `json:"classes"`
}

// Report is the JSON latency/SLO section of a run. All slices are sorted
// (classes by name, intervals by index), so the same seed marshals to the
// same bytes.
type Report struct {
	IntervalCycles uint64          `json:"interval_cycles"`
	OriginCycle    uint64          `json:"origin_cycle"`
	Classes        []ClassStats    `json:"classes"`
	Intervals      []IntervalStats `json:"intervals"`
	GCPause        obs.HDRSummary  `json:"jvm_gc_pause"`
	SLO            []SLOResult     `json:"slo,omitempty"`
}

// BuildReport digests the collector and evaluates its objectives.
func (c *Collector) BuildReport() *Report {
	r := &Report{IntervalCycles: c.opt.IntervalCycles, OriginCycle: c.origin}
	if c.gcPause != nil {
		r.GCPause = c.gcPause.Summarize()
	}

	names := make([]string, 0, len(c.classes))
	for k := range c.classes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a := c.classes[k]
		attributed := uint64(0)
		for _, v := range a.phases {
			attributed += v
		}
		sched := uint64(0)
		if a.total > attributed {
			sched = a.total - attributed
		}
		r.Classes = append(r.Classes, ClassStats{
			Class:   k,
			Error:   IsErrorClass(k),
			Latency: a.hdr.Summarize(),
			Phases: PhaseBreakdown{
				CPU:       a.phases[PhaseCPU],
				MemStall:  a.phases[PhaseMemStall],
				LockWait:  a.phases[PhaseLockWait],
				Net:       a.phases[PhaseNet],
				DBQueue:   a.phases[PhaseDBQueue],
				DBService: a.phases[PhaseDBService],
				GCPause:   a.phases[PhaseGC],
				Think:     a.phases[PhaseThink],
				Sched:     sched,
			},
		})
	}

	for i, b := range c.bins {
		iv := IntervalStats{Index: i, StartCycle: c.origin + uint64(i)*c.opt.IntervalCycles}
		ks := make([]string, 0, len(b.classes))
		for k := range b.classes {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			h := b.classes[k]
			iv.Classes = append(iv.Classes, IntervalClass{
				Class: k,
				Count: h.Count(),
				P50:   h.Quantile(0.50),
				P99:   h.Quantile(0.99),
				P999:  h.Quantile(0.999),
				Max:   h.Max(),
			})
		}
		r.Intervals = append(r.Intervals, iv)
	}

	r.SLO = c.evaluateSLOs()
	return r
}

// ReportJSON marshals the report with a trailing newline; errors cannot
// occur for this type and map to an empty object defensively.
func (c *Collector) ReportJSON() []byte {
	buf, err := json.MarshalIndent(c.BuildReport(), "", "  ")
	if err != nil {
		return []byte("{}\n")
	}
	return append(buf, '\n')
}
