package obs_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/drivertest"
	. "repro/internal/obs" // an external test package: drivertest imports obs
)

// goldenEvents are two runs' events that cover every argument kind the
// encoder renders — strings that need escaping, the integer extremes,
// floats in each %g form, both bools — on both phases.
func goldenEvents() [2][]Event {
	return [2][]Event{{
		{Name: "gc.minor", Comp: CompJVM, Phase: 'X', Tid: 3, Time: 1000, Dur: 2501, Args: []Arg{
			U64("live_bytes", math.MaxUint64),
			I64("delta", -42),
			Bool("ok", true),
			Bool("full", false)}},
		{Name: "bus.getm", Comp: CompMem, Phase: 'i', Tid: 1, Time: 777, Args: []Arg{
			Str("src", "c2c"),
			Str("note", "q\"b\\s\x01\nt\té€\xff")}},
		{Name: "fault.dbslow", Comp: CompFault, Phase: 'X', Tid: -1, Time: 250, Args: []Arg{
			F64("tenth", 0.1),
			F64("big", 1e21),
			F64("negzero", math.Copysign(0, -1))}},
		{Name: "lock.wait", Comp: CompOS, Phase: 'X', Tid: 1, Time: 40},
	}, {
		{Name: "measure.start", Comp: CompWorkload, Phase: 'i', Pid: 7, Time: 12_000_001},
		{Name: "ke\"y", Comp: CompNet, Phase: 'i', Pid: 7, Tid: 2, Time: 3, Args: []Arg{Str("k\x7fé", "")}},
	}}
}

// goldenTracers records goldenEvents into two tracers with several named
// pid/tid tracks.
func goldenTracers() []*Tracer {
	a := NewTracer(AllComponents())
	a.SampleEvery(CompMem, 1)
	a.NameProcess(0, "ECperf \"15P\"")
	a.NameProcess(7, "db\\tier")
	a.NameThread(0, 3, "worker\t3")
	a.NameThread(0, 1, "cpu-1")
	a.NameThread(7, 0, "döner")
	b := NewTracer(AllComponents())
	b.Pid = 7
	trs := []*Tracer{a, b}
	for i, evs := range goldenEvents() {
		for _, e := range evs {
			if e.Phase == 'X' {
				trs[i].Span(e.Comp, e.Name, e.Tid, e.Time, e.Time+e.Dur, e.Args...)
			} else {
				trs[i].Instant(e.Comp, e.Name, e.Tid, e.Time, e.Args...)
			}
		}
	}
	return trs
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
	evs := goldenEvents()
	got.Write(ChromeTraceEvents(append(evs[0], evs[1]...), map[int]string{7: "db", 0: "run\"0\""}))
	got.WriteString("=== ChromeTraceEvents (no names) ===\n")
	got.Write(ChromeTraceEvents(nil, nil))

	drivertest.Golden(t, filepath.Join("testdata", "chrometrace.golden"), []byte(got.String()), *updateGolden)
}
