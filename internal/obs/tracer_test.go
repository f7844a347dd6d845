package obs

import (
	"io"
	"testing"
)

// TestTracerAllocs pins the recorder's allocation contract: a sampled-out
// event costs nothing, an admitted event into a ring costs nothing, and an
// admitted event into the linear buffer costs only its share of a chunk.
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

	// Linear buffer: a whole chunk's worth of events per run, so each run
	// pays a handful of chunk allocations spread over traceChunk events.
	lin := NewTracer(AllComponents())
	lin.SampleEvery(CompMem, 1)
	a := testing.AllocsPerRun(4, func() {
		for i := 0; i < traceChunk; i++ {
			busGetS(lin)
		}
	})
	if per := a / traceChunk; per > 0.01 {
		t.Errorf("linear buffer: %.4f allocs/event (%v per %d events), want amortized < 0.01", per, a, traceChunk)
	}
}

// TestTracerChunkBoundary checks the linear buffer across chunk boundaries:
// the cap and the drop count hold, events keep their order, and arguments
// that straddle an argument-block boundary stay attached to their event.
func TestTracerChunkBoundary(t *testing.T) {
	const extra = 10
	tr := NewTracer([]Component{CompOS})
	tr.max = 2*traceChunk + extra
	total := 2*traceChunk + 3*extra
	for i := 0; i < total; i++ {
		if tr.Admit(CompOS) {
			// Three args per event: argChunk is not a multiple of 3, so
			// some event finds its block full and starts a new one.
			tr.Instant(CompOS, "x", 0, uint64(i), U64("i", uint64(i)), I64("neg", -int64(i)), Bool("odd", i%2 == 1))
		}
	}
	if tr.Len() != 2*traceChunk+extra || tr.Dropped() != 2*extra {
		t.Fatalf("len %d dropped %d, want %d %d", tr.Len(), tr.Dropped(), 2*traceChunk+extra, 2*extra)
	}
	evs := tr.Events()
	if len(evs) != tr.Len() {
		t.Fatalf("Events() returned %d, want %d", len(evs), tr.Len())
	}
	for i, e := range evs {
		if e.Time != uint64(i) || len(e.Args) != 3 ||
			e.Args[0].num != uint64(i) || int64(e.Args[1].num) != -int64(i) || (e.Args[2].num == 1) != (i%2 == 1) {
			t.Fatalf("event %d: time %d args %+v", i, e.Time, e.Args)
		}
	}
}

// TestRingKeepsArgs checks that ring slots own their arguments: a caller
// reusing its argument slice cannot change recorded events, Events()
// survives later pushes, and an event with more arguments than a slot
// holds keeps all of them.
func TestRingKeepsArgs(t *testing.T) {
	r := NewEventRing(2)
	args := []Arg{U64("a", 1)}
	r.Push(Event{Name: "one", Args: args})
	args[0] = U64("a", 99)
	many := []Arg{U64("a", 1), U64("b", 2), U64("c", 3), U64("d", 4), U64("e", 5)}
	r.Push(Event{Name: "two", Args: many})
	got := r.Events()
	r.Push(Event{Name: "three", Args: []Arg{U64("a", 7)}})
	if got[0].Args[0].num != 1 {
		t.Errorf("slot took the caller's later write: %+v", got[0].Args)
	}
	if len(got[1].Args) != 5 || got[1].Args[4].num != 5 {
		t.Errorf("overflowing event lost args: %+v", got[1].Args)
	}
}

// benchTracer records n events of the simulator's typical mix: bus
// instants with two arguments, lock spans, and argument-free op spans.
func benchTracer(n int) *Tracer {
	tr := NewTracer(AllComponents())
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

// BenchmarkWriteChromeTrace encodes a 10k-event trace.
func BenchmarkWriteChromeTrace(b *testing.B) {
	tr := benchTracer(10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
}
