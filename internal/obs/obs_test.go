package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilReceiversAreDisabled(t *testing.T) {
	var tr *Tracer
	var pf *Profiler
	var hb *Heartbeat
	tr.Span(CompJVM, "gc", 0, 10, 20)
	tr.Instant(CompMem, "bus", 0, 5)
	if tr.Admit(CompJVM) || tr.Dropped() != 0 {
		t.Fatal("nil tracer should be disabled")
	}
	pf.AddCycles(1, CatBase, 100)
	pf.SetPhase("measure")
	pf.Reset()
	if profTotal(pf) != 0 {
		t.Fatal("nil profiler should accumulate nothing")
	}
	hb.AddRun()
	hb.SetCycles(5)
	hb.Stop()
}

func TestTracerChromeJSON(t *testing.T) {
	tr := NewTracer()
	tr.NameProcess(0, "SPECjbb")
	tr.NameThread(0, 3, "jbb-worker")
	tr.Span(CompJVM, "gc.minor", 0, 1000, 3500, U64("live_bytes", 42))
	tr.Span(CompOS, "lock.wait", 3, 200, 450)
	tr.Instant(CompMem, "bus.getm", 1, 777, Str("src", "c2c"))
	tr.Span(CompOS, "clamped", 3, 40, 10) // end < start clamps to a zero span

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata + 4 events.
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	byName := map[string]map[string]any{}
	for _, e := range events {
		byName[e["name"].(string)] = e
	}
	gc := byName["gc.minor"]
	if gc["ph"] != "X" || gc["cat"] != "jvm" {
		t.Fatalf("gc event malformed: %v", gc)
	}
	// 1000 cycles at 250 MHz = 4 µs; duration 2500 cycles = 10 µs.
	if gc["ts"].(float64) != 4 || gc["dur"].(float64) != 10 {
		t.Fatalf("cycle->us conversion wrong: ts=%v dur=%v", gc["ts"], gc["dur"])
	}
	if c := byName["clamped"]; c["ts"].(float64) != 0.16 || c["dur"].(float64) != 0 {
		t.Fatalf("end < start not clamped: %v", c)
	}
	if byName["bus.getm"]["ph"] != "i" {
		t.Fatal("instant phase missing")
	}
	args := gc["args"].(map[string]any)
	if args["live_bytes"].(float64) != 42 {
		t.Fatalf("args lost: %v", args)
	}
}

func TestTracerSamplingAndCap(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 10*DefaultMemSample; i++ {
		if tr.Admit(CompMem) {
			tr.Instant(CompMem, "bus", 0, uint64(i))
		}
	}
	if tr.n != 10 {
		t.Fatalf("sampled %d of %d, want 10", tr.n, 10*DefaultMemSample)
	}
	// Only memory events are sampled.
	tr2 := NewTracer()
	tr2.max = 5
	for i := 0; i < 20; i++ {
		if tr2.Admit(CompOS) {
			tr2.Instant(CompOS, "x", 0, uint64(i))
		}
	}
	if tr2.n != 5 || tr2.Dropped() != 15 {
		t.Fatalf("cap: len=%d dropped=%d", tr2.n, tr2.Dropped())
	}
}

func TestRegistrySnapshotDelta(t *testing.T) {
	var miss uint64
	var hist HDR
	util := 0.25

	r := NewRegistry()
	r.Counter("memsys.l2.miss", func() uint64 { return miss })
	r.Gauge("db.utilization", func() float64 { return util })
	r.Histogram("jvm.gc.pause_cycles", &hist)

	miss = 100
	hist.Record(5000)
	base := r.Snapshot()

	miss = 250
	util = 0.75
	hist.Record(9000)
	hist.Record(11000)
	cur := r.Snapshot()

	d := cur.Delta(base)
	if d.counters["memsys.l2.miss"] != 150 {
		t.Fatalf("delta counter = %d, want 150", d.counters["memsys.l2.miss"])
	}
	if d.gauges["db.utilization"] != 0.75 {
		t.Fatalf("gauge should keep the later level, got %v", d.gauges["db.utilization"])
	}
	if h := d.histos["jvm.gc.pause_cycles"]; h.Count() != 2 {
		t.Fatalf("delta histogram count = %d, want 2", h.Count())
	}

	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"memsys.l2.miss", "150", "jvm.gc.pause_cycles", "count=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering lacks %q:\n%s", want, out)
		}
	}
}

// TestRegistrySnapshotCopiesHistogram: a snapshot must deep-copy a bound
// histogram. Sharing its bucket storage would make the base see later
// samples recorded into the same buckets, and every delta read as zero.
func TestRegistrySnapshotCopiesHistogram(t *testing.T) {
	var pauses HDR
	r := NewRegistry()
	r.Histogram("jvm.gc.pause_cycles", &pauses)
	pauses.Record(40_000)
	base := r.Snapshot()
	pauses.Record(40_000)
	pauses.Record(40_001)
	d := r.Snapshot().Delta(base)
	if got := d.histos["jvm.gc.pause_cycles"].Count(); got != 2 {
		t.Fatalf("delta pause count = %d, want 2", got)
	}
	if got := base.histos["jvm.gc.pause_cycles"].Count(); got != 1 {
		t.Fatalf("base snapshot changed after capture: count %d, want 1", got)
	}
}

// profTotal returns all cycles p attributes.
func profTotal(p *Profiler) uint64 {
	var n uint64
	for _, c := range p.ComponentTotals() {
		n += c
	}
	return n
}

func TestProfilerFolded(t *testing.T) {
	p := NewProfiler()
	p.NameComponent(1, "servlet")
	p.NameComponent(2, "jvm-gc")
	p.SetPhase("measure")
	p.AddCycles(1, CatBase, 700)
	p.AddCycles(1, CatDC2C, 300)
	prev := p.PushSubPhase("gc")
	p.AddCycles(2, CatDMem, 500)
	p.SetPhase(prev)
	p.AddCycles(1, CatBase, 100)

	if profTotal(p) != 1600 {
		t.Fatalf("total = %d, want 1600", profTotal(p))
	}
	comps := p.ComponentTotals()
	if comps["servlet"] != 1100 || comps["jvm-gc"] != 500 {
		t.Fatalf("component totals wrong: %v", comps)
	}

	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"measure;servlet;base 800",
		"measure;servlet;dstall.c2c 300",
		"measure/gc;jvm-gc;dstall.mem 500",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("folded output lacks %q:\n%s", want, out)
		}
	}

	p.Reset()
	if profTotal(p) != 0 {
		t.Fatal("reset left cycles behind")
	}
}

func TestProfilerScopePrefix(t *testing.T) {
	p := NewProfiler()
	p.Scope = "ECperf"
	p.AddCycles(0, CatIStall, 9)
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "ECperf;run;comp0;istall 9") {
		t.Fatalf("scope prefix missing: %q", buf.String())
	}
}
