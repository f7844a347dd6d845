package obs

import (
	"math"
	"os"
)

// CyclesPerMicrosecond converts the simulated 250 MHz cycle clock to the
// microsecond timestamps the Chrome trace_event format expects.
const CyclesPerMicrosecond = 250.0

// DefaultMaxEvents caps how many events a tracer records; past it events
// are counted as dropped. The recorded events live in a spill file, so the
// cap bounds the disk a runaway trace can fill, not its memory.
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

	// The linear buffer: admitted events already encoded as Chrome trace
	// records, separated by ",\n". Past flushBytes the buffer is appended
	// to spill, an unlinked file created on the first flush in spillDir
	// ("" = os.TempDir()), and reused; spilled counts the bytes there. err
	// holds the first spill I/O error for WriteChromeTrace to return.
	buf      []byte
	spill    *os.File
	spilled  int64
	spillDir string
	err      error
	n        int
	max      int
	dropped  uint64

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

// record stores an admitted event: always into the ring when one is
// attached, and, unless this is a ring-only tracer or the buffer is at its
// cap (counted as dropped), encoded at once into the linear buffer. The
// caller's args are only read, so a variadic argument list stays on the
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
	if t.buf == nil {
		t.buf = make([]byte, 0, flushBytes+4<<10)
	}
	if t.n > 0 {
		t.buf = append(t.buf, ",\n"...)
	}
	ev := *e
	ev.Args = args
	t.buf = appendEvent(t.buf, &ev)
	t.n++
	if len(t.buf) >= flushBytes {
		t.flush()
	}
}

// flush appends the buffer to the spill file, creating the file first if
// this is the first flush, and empties the buffer. After an I/O error the
// buffer is discarded; the error surfaces from WriteChromeTrace.
func (t *Tracer) flush() {
	if t.err == nil && t.spill == nil {
		t.spill, t.err = createSpill(t.spillDir)
	}
	if t.err == nil {
		var n int
		n, t.err = t.spill.Write(t.buf)
		t.spilled += int64(n)
	}
	t.buf = t.buf[:0]
}

// createSpill creates a spill file in dir and removes its name at once:
// the open file keeps its bytes, and nothing is left on disk however the
// process ends.
func createSpill(dir string) (*os.File, error) {
	f, err := os.CreateTemp(dir, ".trace-*.spill")
	if err != nil {
		return nil, err
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// closeSpill releases the spill file once nothing will read it again;
// an export after it fails. Its bytes were only ever read back, so a close
// error changes nothing.
func (t *Tracer) closeSpill() {
	if t != nil && t.spill != nil {
		t.spill.Close()
	}
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

// Dropped returns how many events the cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}
