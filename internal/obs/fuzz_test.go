package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// refArg and refFormatEvent are the fmt-based encoder the append encoder
// replaced, kept as the reference its bytes must match.
type refArg struct {
	Key string
	Val any
}

func refFormatEvent(e *Event, args []refArg) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"name":%s,"cat":%s,"ph":"%c","pid":%d,"tid":%d,"ts":%.3f`,
		refQuoteJSON(e.Name), refQuoteJSON(e.Comp.String()), e.Phase, e.Pid, e.Tid,
		float64(e.Time)/CyclesPerMicrosecond)
	if e.Phase == 'X' {
		fmt.Fprintf(&b, `,"dur":%.3f`, float64(e.Dur)/CyclesPerMicrosecond)
	}
	if e.Phase == 'i' {
		b.WriteString(`,"s":"t"`)
	}
	if len(args) > 0 {
		b.WriteString(`,"args":{`)
		for i, a := range args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(refQuoteJSON(a.Key))
			b.WriteByte(':')
			switch v := a.Val.(type) {
			case string:
				b.WriteString(refQuoteJSON(v))
			case float64:
				fmt.Fprintf(&b, "%g", v)
			default:
				fmt.Fprintf(&b, "%d", v)
			}
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	return b.String()
}

func refQuoteJSON(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}

// FuzzChromeTraceEvent: for any name, key and argument values (finite
// floats), the append encoder writes the reference encoder's bytes, and
// they are valid JSON. bl adds a fourth argument, i read as unsigned.
func FuzzChromeTraceEvent(f *testing.F) {
	f.Add("bus.gets", "addr", "c2c", uint64(0x1fc0), int64(-42), 0.1, true, uint64(1000), uint64(2500), int64(3), false)
	f.Add("q\"b\\s", "k\x01\n\t", "é€\xff ", uint64(math.MaxUint64), int64(math.MinInt64), 1e21, false, uint64(1<<48-1), uint64(1<<48), int64(-1), true)
	f.Add("", "", "", uint64(0), int64(0), math.Copysign(0, -1), false, uint64(0), uint64(0), int64(0), true)
	f.Add("gc.minor", "live_bytes", "\x7f", uint64(1), int64(math.MaxInt64), 5e-324, true, uint64(math.MaxUint64), uint64(1<<53+1), int64(math.MaxInt64), false)
	f.Fuzz(func(t *testing.T, name, key, s string, u uint64, i int64, fl float64, bl bool, ts, dur uint64, tid int64, span bool) {
		if math.IsNaN(fl) || math.IsInf(fl, 0) {
			t.Skip("JSON has no non-finite numbers")
		}
		// Every component, plus one out of range.
		e := Event{Name: name, Comp: Component(uint64(tid) % uint64(CompFault+2)), Phase: 'i', Pid: int(i), Tid: int(tid), Time: ts, Dur: dur}
		if span {
			e.Phase = 'X'
		}
		e.Args = []Arg{Str(key, s), U64(key+"u", u), F64(key, fl)}
		ref := []refArg{{key, s}, {key + "u", u}, {key, fl}}
		if bl {
			e.Args = append(e.Args, U64("i"+key, uint64(i)))
			ref = append(ref, refArg{"i" + key, uint64(i)})
		}

		got := string(appendEvent(nil, &e))
		if want := refFormatEvent(&e, ref); got != want {
			t.Fatalf("encoder mismatch:\n got %s\nwant %s", got, want)
		}
		if !json.Valid([]byte(got)) {
			t.Fatalf("invalid JSON: %s", got)
		}
		e.Args = nil
		if got, want := string(appendEvent(nil, &e)), refFormatEvent(&e, nil); got != want {
			t.Fatalf("encoder mismatch without args:\n got %s\nwant %s", got, want)
		}
	})
}
