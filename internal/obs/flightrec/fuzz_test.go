package flightrec

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// fuzzEventBytes is the size of one fuzzed event record: start (4 bytes),
// duration (3), argument count, phase, component, and track.
const fuzzEventBytes = 11

// FuzzRecorderWindow builds a recorder from fuzzed -flight options (ring
// size, window length), feeds its ring fuzzed events — start times,
// durations, pids and 0–6 arguments of every kind, so events too wide for
// a ring slot reach the side table — arms one fuzzed fault window, then
// ticks and dumps at a fuzzed cycle. Each bundle must be valid JSON, every
// trace event in it must overlap [window_start_cycle, cycle], and its trace
// holds at most the ring's events plus the fault window. Cycles stay below
// 2^40, far past any run, where the trace's microsecond timestamps are
// exact.
func FuzzRecorderWindow(f *testing.F) {
	ev := func(start uint32, dur uint32, nargs, phase byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, start)
		return append(b, byte(dur), byte(dur>>8), byte(dur>>16), nargs, phase, 4, 1)
	}
	cat := func(evs ...[]byte) []byte {
		var b []byte
		for _, e := range evs {
			b = append(b, e...)
		}
		return b
	}
	// A span ending exactly at the window start (kept), one ending a cycle
	// earlier (dropped), an instant at the dump cycle, a six-argument span.
	f.Add(int16(8), uint64(1000), uint64(2000), uint64(1500), uint64(300), int64(0),
		cat(ev(900, 100, 0, 0), ev(900, 99, 1, 0), ev(2000, 0, 2, 1), ev(1200, 50, 6, 0)))
	// A wrapped two-slot ring, a window wider than the run, a wide pid.
	f.Add(int16(2), uint64(1<<30), uint64(500), uint64(0), uint64(0), int64(1)<<40,
		cat(ev(10, 5, 5, 0), ev(20, 0, 3, 1), ev(30, 9, 4, 0)))
	// Defaults (0 = 65536 events, one simulated second) and a window of 1.
	f.Add(int16(0), uint64(0), uint64(300_000_000), uint64(1), uint64(1<<39), int64(-3),
		cat(ev(49_999_999, 3, 1, 0), ev(50_000_000, 0, 0, 1)))
	f.Add(int16(-1), uint64(1), uint64(1<<39), uint64(1<<39), uint64(1), int64(0), ev(1<<31, 1<<23, 6, 0))

	f.Fuzz(func(t *testing.T, ringEvents int16, window, dumpAt, faultAt, faultDur uint64, pid int64, evs []byte) {
		const cycleCap = 1 << 40
		window, dumpAt, faultAt, faultDur = window%cycleCap, dumpAt%cycleCap, faultAt%cycleCap, faultDur%cycleCap
		rec, _ := newTestRecorder(t, t.TempDir(), Options{RingEvents: int(ringEvents), WindowCycles: window})
		rec.SetSchedule(&fault.Schedule{Events: []fault.Event{
			{Kind: fault.DBLockStorm, At: faultAt, Duration: faultDur, Magnitude: 2},
		}})
		tr := obs.NewRingTracer(rec.ring)
		tr.Pid = int(pid)
		for ; len(evs) >= fuzzEventBytes; evs = evs[fuzzEventBytes:] {
			start := uint64(binary.LittleEndian.Uint32(evs))
			dur := uint64(evs[4]) | uint64(evs[5])<<8 | uint64(evs[6])<<16
			args := fuzzArgs(evs[7]%7, start)
			comp, tid := obs.Component(evs[9]%6), int(int8(evs[10]))
			if evs[8]&1 == 0 {
				tr.Span(comp, "span", tid, start, start+dur, args...)
			} else {
				tr.Instant(comp, "instant", tid, start, args...)
			}
		}
		rec.Tick(dumpAt)
		rec.dump(dumpAt, "manual", "fuzz")
		if rec.Err() != nil {
			t.Fatal(rec.Err())
		}
		for _, d := range rec.Dumps() {
			checkBundle(t, d.Path, rec.ring.Len()+1)
		}
	})
}

// fuzzArgs builds n arguments cycling through every kind.
func fuzzArgs(n byte, v uint64) []obs.Arg {
	var args []obs.Arg
	for i := range int(n) {
		key := "a" + strconv.Itoa(i)
		switch i % 3 {
		case 0:
			args = append(args, obs.U64(key, v))
		case 1:
			args = append(args, obs.Str(key, "s"+strconv.Itoa(int(v%7))))
		default:
			args = append(args, obs.F64(key, float64(v)/3))
		}
	}
	return args
}

// checkBundle decodes the bundle at path and checks its trace: every event
// overlaps the bundle's window, and there are at most max of them.
func checkBundle(t *testing.T, path string, max int) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Cycle       uint64 `json:"cycle"`
		WindowStart uint64 `json:"window_start_cycle"`
		Trace       []struct {
			Ph  string      `json:"ph"`
			Ts  json.Number `json:"ts"`
			Dur json.Number `json:"dur"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatalf("bundle %s is not valid JSON: %v", path, err)
	}
	n := 0
	for _, e := range b.Trace {
		if e.Ph == "M" {
			continue
		}
		n++
		start, dur := microsToCycles(t, e.Ts), microsToCycles(t, e.Dur)
		if start > b.Cycle || start+dur < b.WindowStart {
			t.Fatalf("%s: event [%d, %d] outside window [%d, %d]", path, start, start+dur, b.WindowStart, b.Cycle)
		}
	}
	if n > max {
		t.Fatalf("%s: %d trace events, want at most %d (the ring plus the fault window)", path, n, max)
	}
}

// microsToCycles converts a trace timestamp, microseconds with three
// decimals, back to whole cycles (4 ns each); "" (no duration) is 0.
func microsToCycles(t *testing.T, n json.Number) uint64 {
	t.Helper()
	if n == "" {
		return 0
	}
	whole, frac, ok := strings.Cut(string(n), ".")
	us, err1 := strconv.ParseUint(whole, 10, 64)
	ns, err2 := strconv.ParseUint(frac, 10, 64)
	if !ok || len(frac) != 3 || err1 != nil || err2 != nil {
		t.Fatalf("timestamp %q is not microseconds with three decimals", n)
	}
	return (us*1000 + ns) / 4
}
