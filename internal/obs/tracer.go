package obs

import "math"

// CyclesPerMicrosecond converts the simulated 250 MHz cycle clock to the
// microsecond timestamps the Chrome trace_event format expects.
const CyclesPerMicrosecond = 250.0

// DefaultMaxEvents caps a tracer's buffer; past it events are counted as
// dropped rather than recorded, so a runaway trace cannot exhaust memory.
const DefaultMaxEvents = 1 << 20

// DefaultMemSample records one in every N bus transactions when memory
// tracing is on. Bus transactions outnumber every other traced event by
// orders of magnitude; sampling keeps them visible without drowning the
// trace. Set SampleEvery(CompMem, 1) for an exhaustive record.
const DefaultMemSample = 16

// Event is one trace_event record on the simulated clock. Time and Dur are
// in cycles; they are converted to microseconds only at export.
type Event struct {
	Name string
	Comp Component
	// Phase is 'X' (complete span) or 'i' (instant).
	Phase byte
	// Pid/Tid place the event on a Perfetto track: Pid groups a machine or
	// workload, Tid is a thread ID or CPU within it.
	Pid, Tid int
	Time     uint64
	Dur      uint64
	// Args are optional key=value annotations (small, human-oriented).
	Args []Arg
}

// Arg is one typed event annotation, built by Str, U64, I64, F64 or Bool.
// The value is held unboxed, so passing arguments to Span or Instant never
// allocates.
type Arg struct {
	Key  string
	kind argKind
	num  uint64 // U64; I64 as two's complement; F64 as IEEE bits; Bool as 0/1
	str  string
}

type argKind uint8

const (
	argStr argKind = iota
	argU64
	argI64
	argF64
	argBool
)

// Str is a string argument.
func Str(key, v string) Arg { return Arg{Key: key, kind: argStr, str: v} }

// U64 is an unsigned integer argument.
func U64(key string, v uint64) Arg { return Arg{Key: key, kind: argU64, num: v} }

// I64 is a signed integer argument.
func I64(key string, v int64) Arg { return Arg{Key: key, kind: argI64, num: uint64(v)} }

// F64 is a floating-point argument.
func F64(key string, v float64) Arg { return Arg{Key: key, kind: argF64, num: math.Float64bits(v)} }

// Bool is a boolean argument.
func Bool(key string, v bool) Arg {
	a := Arg{Key: key, kind: argBool}
	if v {
		a.num = 1
	}
	return a
}

// traceChunk and argChunk size the linear buffer's storage blocks. The
// buffer grows a block at a time and never copies what it already holds.
const (
	traceChunk = 2048
	argChunk   = 4096
)

// Tracer records simulated-time events. A nil *Tracer is valid and
// disabled: every method returns immediately, so instrumentation sites pay
// one nil check when tracing is off.
//
// Every emit site follows one pattern: ask Admit, and only when it says yes
// build the arguments and call Span or Instant. An event that sampling
// drops therefore costs a counter increment and nothing else.
//
// The tracer is not safe for concurrent use; one run owns one tracer.
type Tracer struct {
	enabled [numComponents]bool
	sample  [numComponents]uint64 // record 1 in N (0/1 = all)
	seen    [numComponents]uint64

	// The linear buffer: events in fixed-size chunks, their arguments in
	// argBuf blocks that the events' Args slices point into.
	chunks  [][]Event
	argBuf  []Arg
	n       int
	max     int
	dropped uint64

	// ring, when set, receives every admitted event in addition to (or, with
	// ringOnly, instead of) the linear buffer — the flight recorder's view of
	// the recent past. The ring overwrites oldest entries, so it keeps
	// recording after the linear buffer hits its cap.
	ring     *EventRing
	ringOnly bool

	// Pid is the default process track for events recorded through this
	// tracer; procNames label pid tracks in the exported trace.
	Pid       int
	procNames map[int]string
	tidNames  map[[2]int]string
}

// NewTracer returns a tracer with the given components enabled.
func NewTracer(comps []Component) *Tracer {
	t := &Tracer{max: DefaultMaxEvents, procNames: map[int]string{}, tidNames: map[[2]int]string{}}
	for _, c := range comps {
		if int(c) < int(numComponents) {
			t.enabled[c] = true
		}
	}
	t.sample[CompMem] = DefaultMemSample
	return t
}

// NewRingTracer returns a tracer that records only into ring: the flight
// recorder's always-on mode, where memory stays capped by eviction rather
// than by refusing new events. Component enablement and sampling behave
// exactly like NewTracer's.
func NewRingTracer(comps []Component, ring *EventRing) *Tracer {
	t := NewTracer(comps)
	t.ring = ring
	t.ringOnly = true
	return t
}

// SetRing attaches a ring that mirrors every admitted event — used when a
// full -trace buffer and the flight recorder share one tracer.
func (t *Tracer) SetRing(r *EventRing) {
	if t != nil {
		t.ring = r
	}
}

// Ring returns the attached event ring (nil if none).
func (t *Tracer) Ring() *EventRing {
	if t == nil {
		return nil
	}
	return t.ring
}

// SetMaxEvents overrides the event cap.
func (t *Tracer) SetMaxEvents(n int) {
	if t != nil && n > 0 {
		t.max = n
	}
}

// SampleEvery records one in n events of the component (n <= 1 records
// all). Only the memory component defaults to sampling.
func (t *Tracer) SampleEvery(c Component, n uint64) {
	if t != nil && int(c) < int(numComponents) {
		t.sample[c] = n
	}
}

// NameProcess labels a pid track in the exported trace.
func (t *Tracer) NameProcess(pid int, name string) {
	if t != nil {
		t.procNames[pid] = name
	}
}

// NameThread labels a (pid, tid) track in the exported trace.
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t != nil {
		t.tidNames[[2]int{pid, tid}] = name
	}
}

// Admit reports whether the next event of component c is recorded: c is
// enabled and the event survives c's 1-in-N sampling. Each call counts one
// would-be event against the sampler, so call it exactly once per event,
// before building the event's arguments, and emit only on true:
//
//	if t.Admit(obs.CompMem) {
//		t.Instant(obs.CompMem, "bus.gets", id, now, obs.U64("addr", addr))
//	}
func (t *Tracer) Admit(c Component) bool {
	if t == nil || !t.enabled[c] {
		return false
	}
	if n := t.sample[c]; n > 1 {
		t.seen[c]++
		return t.seen[c]%n == 0
	}
	return true
}

// record stores an admitted event and a copy of its arguments: always into
// the ring when one is attached, and into the linear buffer unless this is
// a ring-only tracer or the buffer is at its cap (counted as dropped). The
// caller's args are only copied, so a variadic argument list stays on the
// caller's stack.
func (t *Tracer) record(e *Event, args []Arg) {
	t.ring.push(e, args)
	if t.ringOnly {
		return
	}
	if t.n >= t.max {
		t.dropped++
		return
	}
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == traceChunk {
		t.chunks = append(t.chunks, make([]Event, 0, traceChunk))
		last++
	}
	c := &t.chunks[last]
	*c = append(*c, *e)
	if len(args) > 0 {
		if len(t.argBuf)+len(args) > cap(t.argBuf) {
			t.argBuf = make([]Arg, 0, max(argChunk, len(args)))
		}
		off := len(t.argBuf)
		t.argBuf = append(t.argBuf, args...)
		(*c)[len(*c)-1].Args = t.argBuf[off:len(t.argBuf):len(t.argBuf)]
	}
	t.n++
}

// Span records a complete [start, end) interval on track (t.Pid, tid).
// Call it only for an event Admit(c) let through.
func (t *Tracer) Span(c Component, name string, tid int, start, end uint64, args ...Arg) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.record(&Event{
		Name: name, Comp: c, Phase: 'X', Pid: t.Pid, Tid: tid,
		Time: start, Dur: end - start,
	}, args)
}

// Instant records a point event on track (t.Pid, tid). Call it only for an
// event Admit(c) let through.
func (t *Tracer) Instant(c Component, name string, tid int, at uint64, args ...Arg) {
	if t == nil {
		return
	}
	t.record(&Event{
		Name: name, Comp: c, Phase: 'i', Pid: t.Pid, Tid: tid, Time: at,
	}, args)
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// MaxEvents returns the linear buffer's event cap.
func (t *Tracer) MaxEvents() int {
	if t == nil {
		return 0
	}
	return t.max
}

// Dropped returns how many events the cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the recorded events in order, copied out of the chunked
// buffer (for tests).
func (t *Tracer) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Event, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}
