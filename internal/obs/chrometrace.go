package obs

import (
	"cmp"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// WriteChromeTrace writes the tracers' events as Chrome trace_event JSON
// (the "JSON array format"), loadable in Perfetto or chrome://tracing.
// Cycle timestamps become microseconds at the simulated 250 MHz clock.
// Tracer by tracer, in order, it writes the track-name metadata, then the
// events the tracer encoded as it recorded them: its spill file, then the
// rest of its buffer. A spill I/O error the tracer held is returned.
func WriteChromeTrace(w io.Writer, tracers ...*Tracer) error {
	enc := traceEncoder{w: w}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		enc.trackNames(t.procNames, t.tidNames)
		enc.recorded(t)
	}
	return enc.finish()
}

// ChromeTraceWindow renders a flight-recorder window as Chrome trace_event
// JSON bytes: the track labels procNames (may be nil), the lead events,
// then the events of ring r (may be nil) that overlap [from, to], oldest
// first, read from the ring in place.
func ChromeTraceWindow(lead []Event, r *EventRing, from, to uint64, procNames map[int]string) []byte {
	enc := traceEncoder{b: make([]byte, 0, (len(procNames)+len(lead)+r.Len())*windowEventBytes)}
	enc.trackNames(procNames, nil)
	for i := range lead {
		enc.event(&lead[i])
	}
	r.walk(from, to, enc.event)
	enc.finish()
	return enc.b
}

// windowEventBytes sizes ChromeTraceWindow's buffer per record it may
// hold: a ring event with two short arguments encodes in about 110 bytes.
const windowEventBytes = 128

// flushBytes is how much encoded JSON a streaming encoder or a tracer's
// buffer holds before it writes through.
const flushBytes = 64 << 10

// traceEncoder appends Chrome trace_event records, one per line, between
// the array's brackets. With w set it streams, writing its buffer through
// whenever it passes flushBytes; without, the whole document stays in b.
type traceEncoder struct {
	b   []byte
	w   io.Writer
	n   int // records so far
	err error
}

// record starts the next record, separating it from the previous one and
// opening the array before the first.
func (e *traceEncoder) record() {
	if e.n == 0 {
		e.b = append(e.b, "[\n"...)
	} else {
		e.b = append(e.b, ",\n"...)
		if e.w != nil && len(e.b) >= flushBytes {
			e.flush()
		}
	}
	e.n++
}

func (e *traceEncoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

// finish closes the array and, when streaming, writes out the rest.
func (e *traceEncoder) finish() error {
	if e.n == 0 {
		e.b = append(e.b, "[\n"...)
	}
	e.b = append(e.b, "\n]\n"...)
	if e.w != nil {
		e.flush()
	}
	return e.err
}

// trackNames emits the process- and thread-name metadata records that
// label Perfetto tracks, in deterministic (pid, tid) order.
func (e *traceEncoder) trackNames(procNames map[int]string, tidNames map[[2]int]string) {
	pids := make([]int, 0, len(procNames))
	for pid := range procNames {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	for _, pid := range pids {
		e.meta("process_name", pid, 0, procNames[pid])
	}
	keys := make([][2]int, 0, len(tidNames))
	for k := range tidNames {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for _, k := range keys {
		e.meta("thread_name", k[0], k[1], tidNames[k])
	}
}

func (e *traceEncoder) meta(kind string, pid, tid int, name string) {
	e.record()
	b := append(e.b, `{"ph":"M","name":"`...)
	b = append(b, kind...)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{"name":`...)
	b = appendQuoted(b, name)
	e.b = append(b, "}}"...)
}

// recorded writes t's encoded events as the next records: one separator,
// then the spill file and the buffer, which t already separated.
func (e *traceEncoder) recorded(t *Tracer) {
	if t.n == 0 {
		return
	}
	e.record()
	e.flush()
	if e.err == nil {
		e.err = t.err
	}
	if e.err == nil && t.spill != nil {
		_, e.err = io.Copy(e.w, io.NewSectionReader(t.spill, 0, t.spilled))
	}
	if e.err == nil {
		_, e.err = e.w.Write(t.buf)
	}
}

func (e *traceEncoder) event(ev *Event) {
	e.record()
	e.b = appendEvent(e.b, ev)
}

// appendEvent appends one event record. Timestamps and durations are
// microseconds with three decimals (%.3f); argument values render as fmt
// renders them: strings quoted, integers %d, floats %g.
func appendEvent(b []byte, e *Event) []byte {
	b = append(b, `{"name":`...)
	b = appendQuoted(b, e.Name)
	b = append(b, `,"cat":`...)
	b = appendQuoted(b, e.Comp.String())
	b = append(b, `,"ph":"`...)
	b = utf8.AppendRune(b, rune(e.Phase))
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(e.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.Tid), 10)
	b = append(b, `,"ts":`...)
	b = appendMicros(b, e.Time)
	switch e.Phase {
	case 'X':
		b = append(b, `,"dur":`...)
		b = appendMicros(b, e.Dur)
	case 'i':
		b = append(b, `,"s":"t"`...)
	}
	if len(e.Args) > 0 {
		b = append(b, `,"args":{`...)
		for i := range e.Args {
			a := &e.Args[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = appendQuoted(b, a.Key)
			b = append(b, ':')
			switch a.kind {
			case argStr:
				b = appendQuoted(b, a.str)
			case argU64:
				b = strconv.AppendUint(b, a.num, 10)
			case argF64:
				b = strconv.AppendFloat(b, math.Float64frombits(a.num), 'g', -1, 64)
			}
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendMicros appends a cycle count as microseconds with three decimals:
// the bytes %.3f makes of float64(cycles)/CyclesPerMicrosecond. At 250
// cycles/µs the quotient is a whole number of nanoseconds; below 2^48
// cycles the float lies within half a nanosecond of it, so integer
// arithmetic yields the same digits without strconv's slow fixed-precision
// path.
func appendMicros(b []byte, cycles uint64) []byte {
	if cycles >= 1<<48 {
		return strconv.AppendFloat(b, float64(cycles)/CyclesPerMicrosecond, 'f', 3, 64)
	}
	ns := cycles * (1000 / CyclesPerMicrosecond)
	b = strconv.AppendUint(b, ns/1000, 10)
	frac := ns % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// appendQuoted appends s as a JSON string. Runs of plain ASCII are copied
// in bulk; '"', '\\', '\n' and '\t' get short escapes, other control
// characters \u00XX, and each invalid UTF-8 byte becomes U+FFFD.
func appendQuoted(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			if r, size := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"':
			b = append(b, `\"`...)
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		case '\t':
			b = append(b, `\t`...)
		default:
			if c < 0x20 {
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			} else {
				b = utf8.AppendRune(b, utf8.RuneError)
			}
		}
		i++
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
