package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestTracerAllocs pins the recorder's allocation contract: a sampled-out
// event costs nothing, an admitted event into a ring costs nothing, and an
// admitted event into the linear buffer costs nothing once the buffer has
// spilled, spill writes included.
func TestTracerAllocs(t *testing.T) {
	src := "c2c"
	var now uint64
	busGetS := func(tr *Tracer) {
		now++
		if tr.Admit(CompMem) {
			tr.Instant(CompMem, "bus.gets", 1, now, Str("src", src), U64("addr", now<<6))
		}
	}

	out := NewTracer(AllComponents())
	out.SampleEvery(CompMem, 1<<62)
	if a := testing.AllocsPerRun(1000, func() { busGetS(out) }); a != 0 || out.Len() != 0 {
		t.Errorf("sampled-out instant: %v allocs, %d events; want 0, 0", a, out.Len())
	}

	ring := NewRingTracer(AllComponents(), NewEventRing(64))
	ring.SampleEvery(CompMem, 1)
	if a := testing.AllocsPerRun(1000, func() { busGetS(ring) }); a != 0 {
		t.Errorf("ring-only instant: %v allocs, want 0", a)
	}
	span := func() {
		now++
		if ring.Admit(CompOS) {
			ring.Span(CompOS, "lock.wait", 3, now, now+40, Str("kind", "spin"), U64("lock", now), F64("f", 0.5), Bool("b", true))
		}
	}
	if a := testing.AllocsPerRun(1000, span); a != 0 {
		t.Errorf("ring-only span: %v allocs, want 0", a)
	}

	// Linear buffer: past the first spill, a batch of events that crosses
	// flushBytes several times allocates nothing at all. One run per
	// measurement, so a single allocation in the batch shows.
	lin := NewTracer(AllComponents())
	lin.spillDir = t.TempDir()
	lin.SampleEvery(CompMem, 1)
	for lin.spill == nil {
		busGetS(lin)
	}
	const batch = 5000
	before := lin.spilled
	a := testing.AllocsPerRun(1, func() {
		for i := 0; i < batch; i++ {
			busGetS(lin)
		}
	})
	if a != 0 {
		t.Errorf("linear buffer: %v allocs per %d spilled events, want 0", a, batch)
	}
	if lin.spilled-before < 3*flushBytes || lin.err != nil {
		t.Fatalf("batch spilled %d bytes (err %v), want at least %d", lin.spilled-before, lin.err, 3*flushBytes)
	}
}

// traceRecord is one decoded Chrome trace record.
type traceRecord struct {
	Name string
	Ph   string
	Pid  int
	Tid  int
	Ts   float64
	Args map[string]any
}

// decodeTrace exports the tracers and decodes the JSON array.
func decodeTrace(t *testing.T, trs ...*Tracer) []traceRecord {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, trs...); err != nil {
		t.Fatal(err)
	}
	var recs []traceRecord
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return recs
}

// spillEvents feeds n three-argument instants on track (tr.Pid, i%8), the
// i-th at cycle i*97, and returns them in order.
func spillEvents(tr *Tracer, n int) []Event {
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		at := uint64(i) * 97
		args := []Arg{U64("i", uint64(i)), I64("neg", -int64(i)), Bool("odd", i%2 == 1)}
		if tr.Admit(CompOS) {
			tr.Instant(CompOS, "x", i%8, at, args...)
		}
		evs = append(evs, Event{Name: "x", Comp: CompOS, Phase: 'i', Pid: tr.Pid, Tid: i % 8, Time: at, Args: args})
	}
	return evs
}

// checkRecords compares decoded event records with the events fed in.
func checkRecords(t *testing.T, got []traceRecord, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d event records, want %d", len(got), len(want))
	}
	for i, r := range got {
		w := &want[i]
		if r.Name != w.Name || r.Ph != "i" || r.Pid != w.Pid || r.Tid != w.Tid ||
			r.Ts != float64(w.Time)/CyclesPerMicrosecond ||
			r.Args["i"] != float64(w.Args[0].num) || r.Args["neg"] != -float64(w.Args[0].num) ||
			r.Args["odd"] != (w.Args[2].num == 1) {
			t.Fatalf("record %d: %+v, want %+v", i, r, *w)
		}
	}
}

// TestTracerSpillBoundary records across flushBytes several times with a
// cap low enough to drop events: Len and Dropped hold, no spill file is
// left in its directory, and the export is exactly the admitted events in
// order.
func TestTracerSpillBoundary(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer([]Component{CompOS})
	tr.spillDir = dir
	const fed, kept = 6000, 5000
	tr.max = kept
	evs := spillEvents(tr, fed)
	if tr.Len() != kept || tr.Dropped() != fed-kept {
		t.Fatalf("len %d dropped %d, want %d %d", tr.Len(), tr.Dropped(), kept, fed-kept)
	}
	if tr.spilled < 3*flushBytes {
		t.Fatalf("spilled %d bytes, want several flushes of %d", tr.spilled, flushBytes)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("spill directory holds %v, want nothing", left)
	}
	checkRecords(t, decodeTrace(t, tr), evs[:kept])

	var got bytes.Buffer
	if err := WriteChromeTrace(&got, tr); err != nil {
		t.Fatal(err)
	}
	if want := ChromeTraceEvents(evs[:kept], nil); !bytes.Equal(got.Bytes(), want) {
		t.Fatal("spilled export differs from encoding the same events at once")
	}
}

// TestTracerSpillTwoTracers exports two tracers that have both spilled:
// each tracer's metadata, then its events, never interleaved.
func TestTracerSpillTwoTracers(t *testing.T) {
	var trs []*Tracer
	var want [][]Event
	for pid, n := range []int{1500, 2200} {
		tr := NewTracer([]Component{CompOS})
		tr.spillDir = t.TempDir()
		tr.Pid = pid
		tr.NameProcess(pid, "run")
		tr.NameThread(pid, 3, "cpu")
		want = append(want, spillEvents(tr, n))
		if tr.spill == nil {
			t.Fatalf("tracer %d never spilled", pid)
		}
		trs = append(trs, tr)
	}
	recs := decodeTrace(t, trs...)
	for pid, evs := range want {
		meta := recs[:2]
		if meta[0].Ph != "M" || meta[0].Name != "process_name" || meta[0].Pid != pid ||
			meta[1].Ph != "M" || meta[1].Name != "thread_name" || meta[1].Pid != pid || meta[1].Tid != 3 {
			t.Fatalf("tracer %d metadata: %+v", pid, meta)
		}
		checkRecords(t, recs[2:2+len(evs)], evs)
		recs = recs[2+len(evs):]
	}
	if len(recs) != 0 {
		t.Fatalf("%d records after the last tracer's events", len(recs))
	}
}

// TestRingKeepsArgs checks that ring slots own their arguments: a caller
// reusing its argument slice cannot change recorded events, Events()
// survives later pushes, and an event with more arguments than a slot
// holds keeps all of them.
func TestRingKeepsArgs(t *testing.T) {
	r := NewEventRing(2)
	args := []Arg{U64("a", 1)}
	r.push(&Event{Name: "one"}, args)
	args[0] = U64("a", 99)
	many := []Arg{U64("a", 1), U64("b", 2), U64("c", 3), U64("d", 4), U64("e", 5)}
	r.push(&Event{Name: "two"}, many)
	got := r.Events()
	r.push(&Event{Name: "three"}, []Arg{U64("a", 7)})
	if got[0].Args[0].num != 1 {
		t.Errorf("slot took the caller's later write: %+v", got[0].Args)
	}
	if len(got[1].Args) != 5 || got[1].Args[4].num != 5 {
		t.Errorf("overflowing event lost args: %+v", got[1].Args)
	}
}

// benchTracer records n events of the simulator's typical mix: bus
// instants with two arguments, lock spans, and argument-free op spans.
func benchTracer(b *testing.B, n int) *Tracer {
	tr := NewTracer(AllComponents())
	tr.spillDir = b.TempDir()
	tr.SampleEvery(CompMem, 1)
	tr.NameProcess(0, "ECperf")
	for tid := 0; tid < 16; tid++ {
		tr.NameThread(0, tid, "cpu")
	}
	for i := 0; i < n; i++ {
		at := uint64(i) * 97
		switch i % 4 {
		case 0, 1:
			tr.Instant(CompMem, "bus.gets", i%16, at, Str("src", "c2c"), U64("addr", at<<6))
		case 2:
			tr.Span(CompOS, "lock.wait", i%16, at, at+400, Str("kind", "monitor"), U64("lock", uint64(i%7)))
		default:
			tr.Span(CompWorkload, "neworder", i%16, at, at+90_000)
		}
	}
	return tr
}

// BenchmarkTracerInstantSampledOut is the bus-transaction emit site at the
// default 1-in-16 memory sampling, as the always-on flight recorder runs it:
// fifteen of sixteen calls stop at Admit, the sixteenth goes to the ring.
func BenchmarkTracerInstantSampledOut(b *testing.B) {
	tr := NewRingTracer(AllComponents(), NewEventRing(1024))
	src := "c2c"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Admit(CompMem) {
			tr.Instant(CompMem, "bus.gets", 1, uint64(i), Str("src", src), U64("addr", uint64(i)<<6))
		}
	}
}

// BenchmarkTracerInstantRing is an admitted event into a ring-only tracer.
func BenchmarkTracerInstantRing(b *testing.B) {
	tr := NewRingTracer(AllComponents(), NewEventRing(1024))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Admit(CompOS) {
			tr.Instant(CompOS, "lock.wait", 1, uint64(i), Str("kind", "monitor"), U64("lock", uint64(i)))
		}
	}
}

// BenchmarkTracerInstantLinear is an admitted two-argument bus.gets into a
// -trace tracer: encoding into the buffer and its share of spill writes.
// A tracer at its cap is replaced off the clock, so every timed event is
// recorded and the spill file stays under the cap's size.
func BenchmarkTracerInstantLinear(b *testing.B) {
	dir := b.TempDir()
	fresh := func() *Tracer {
		tr := NewTracer(AllComponents())
		tr.spillDir = dir
		tr.SampleEvery(CompMem, 1)
		return tr
	}
	tr := fresh()
	src := "c2c"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Len() == DefaultMaxEvents {
			b.StopTimer()
			if tr.err != nil {
				b.Fatal(tr.err)
			}
			tr.spill.Close()
			tr = fresh()
			b.StartTimer()
		}
		if tr.Admit(CompMem) {
			tr.Instant(CompMem, "bus.gets", 1, uint64(i), Str("src", src), U64("addr", uint64(i)<<6))
		}
	}
	if tr.err != nil {
		b.Fatal(tr.err)
	}
}

// BenchmarkWriteChromeTrace exports a 10k-event trace: the metadata, then
// a copy of the events the tracer encoded as it recorded them.
func BenchmarkWriteChromeTrace(b *testing.B) {
	tr := benchTracer(b, 10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
}
