package obs

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenTracers builds two tracers whose events cover every argument kind
// the encoder renders — strings that need escaping, the integer extremes,
// floats in each %g form, both bools — on both phases and several named
// pid/tid tracks.
func goldenTracers() []*Tracer {
	a := NewTracer(AllComponents())
	a.SampleEvery(CompMem, 1)
	a.NameProcess(0, "ECperf \"15P\"")
	a.NameProcess(7, "db\\tier")
	a.NameThread(0, 3, "worker\t3")
	a.NameThread(0, 1, "cpu-1")
	a.NameThread(7, 0, "döner")
	a.Span(CompJVM, "gc.minor", 3, 1000, 3501,
		U64("live_bytes", math.MaxUint64),
		I64("delta", -42),
		Bool("ok", true),
		Bool("full", false))
	a.Instant(CompMem, "bus.getm", 1, 777,
		Str("src", "c2c"),
		Str("note", "q\"b\\s\x01\nt\té€\xff"))
	a.Span(CompFault, "fault.dbslow", -1, 250, 250,
		F64("tenth", 0.1),
		F64("big", 1e21),
		F64("negzero", math.Copysign(0, -1)))
	a.Span(CompOS, "lock.wait", 1, 40, 10) // end < start clamps to a zero span

	b := NewTracer(AllComponents())
	b.Pid = 7
	b.Instant(CompWorkload, "measure.start", 0, 12_000_001)
	b.Instant(CompNet, "ke\"y", 2, 3, Str("k\x7fé", ""))
	return []*Tracer{a, b}
}

// TestChromeTraceGolden pins the encoder's bytes for both of its callers:
// WriteChromeTrace over live tracers, and the flight recorder's
// ChromeTraceEvents over a plain event slice.
func TestChromeTraceGolden(t *testing.T) {
	trs := goldenTracers()
	var got strings.Builder
	got.WriteString("=== WriteChromeTrace ===\n")
	if err := WriteChromeTrace(&got, trs...); err != nil {
		t.Fatal(err)
	}
	got.WriteString("=== ChromeTraceEvents ===\n")
	evs := append(append([]Event(nil), trs[0].Events()...), trs[1].Events()...)
	got.Write(ChromeTraceEvents(evs, map[int]string{7: "db", 0: "run\"0\""}))
	got.WriteString("=== ChromeTraceEvents (no names) ===\n")
	got.Write(ChromeTraceEvents(nil, nil))

	golden := filepath.Join("testdata", "chrometrace.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("chrome trace differs from %s (rerun with -update only for an intended format change):\n%s", golden, got.String())
	}
}
