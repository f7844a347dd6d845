package obs

import "testing"

// TestEventRingEviction checks the bounded ring's accounting: pushes past
// capacity evict oldest-first, Events stays in time order, and the
// evicted/total counters reconcile with Len.
func TestEventRingEviction(t *testing.T) {
	r := NewEventRing(4)
	for i := uint64(0); i < 3; i++ {
		r.Push(Event{Name: "e", Comp: CompWorkload, Phase: 'i', Time: i})
	}
	if r.Len() != 3 || r.Evicted() != 0 || r.Total() != 3 {
		t.Fatalf("pre-wrap: len %d evicted %d total %d, want 3 0 3", r.Len(), r.Evicted(), r.Total())
	}
	for i := uint64(3); i < 10; i++ {
		r.Push(Event{Name: "e", Comp: CompWorkload, Phase: 'i', Time: i})
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("post-wrap: len %d cap %d, want 4 4", r.Len(), r.Cap())
	}
	if r.Evicted() != 6 || r.Total() != 10 {
		t.Fatalf("post-wrap: evicted %d total %d, want 6 10", r.Evicted(), r.Total())
	}
	if r.Total() != r.Evicted()+uint64(r.Len()) {
		t.Fatalf("accounting broken: total %d != evicted %d + len %d", r.Total(), r.Evicted(), r.Len())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Time != want {
			t.Fatalf("Events[%d].Time = %d, want %d (oldest-first survivors)", i, e.Time, want)
		}
	}
}

func TestEventRingMinCapacityAndNil(t *testing.T) {
	r := NewEventRing(0)
	if r.Cap() != 1 {
		t.Fatalf("zero capacity clamps to 1, got %d", r.Cap())
	}
	r.Push(Event{Time: 1})
	r.Push(Event{Time: 2})
	if r.Len() != 1 || r.Events()[0].Time != 2 {
		t.Fatalf("1-slot ring keeps newest: len %d events %v", r.Len(), r.Events())
	}

	var nilRing *EventRing
	nilRing.Push(Event{})
	if nilRing.Len() != 0 || nilRing.Cap() != 0 || nilRing.Evicted() != 0 || nilRing.Total() != 0 || nilRing.Events() != nil {
		t.Fatal("nil ring must be inert")
	}
}

// TestRingTracerBypassesBuffer checks the ring-only tracer mode: events land
// in the ring without growing (or dropping from) the bounded event buffer.
func TestRingTracerBypassesBuffer(t *testing.T) {
	tr := NewRingTracer(AllComponents(), NewEventRing(8))
	for i := uint64(0); i < 20; i++ {
		tr.Instant(CompWorkload, "tick", 0, i)
	}
	if tr.Len() != 0 {
		t.Fatalf("ring-only tracer buffered %d events, want 0", tr.Len())
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring-only tracer counted %d drops, want 0 (the ring evicts instead)", tr.Dropped())
	}
	r := tr.Ring()
	if r.Len() != 8 || r.Evicted() != 12 {
		t.Fatalf("ring len %d evicted %d, want 8 12", r.Len(), r.Evicted())
	}
}

// TestTracerSharedRing checks a full tracer with an attached ring: the
// bounded artifact buffer and the flight ring both see the events, and
// buffer overflow increments dropped without touching the ring.
func TestTracerSharedRing(t *testing.T) {
	tr := NewTracer(AllComponents())
	tr.max = 4
	ring := NewEventRing(64)
	tr.SetRing(ring)
	for i := uint64(0); i < 10; i++ {
		tr.Instant(CompWorkload, "tick", 0, i)
	}
	if tr.Len() != 4 || tr.Dropped() != 6 {
		t.Fatalf("buffer len %d dropped %d, want 4 6", tr.Len(), tr.Dropped())
	}
	if ring.Total() != 10 {
		t.Fatalf("ring saw %d events, want all 10 (ring is upstream of the buffer cap)", ring.Total())
	}
}
