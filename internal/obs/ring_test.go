package obs

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestEventRingEviction checks the bounded ring's accounting: pushes past
// capacity evict oldest-first, Events stays in time order, and the
// evicted/total counters reconcile with Len.
func TestEventRingEviction(t *testing.T) {
	r := NewEventRing(4)
	for i := uint64(0); i < 3; i++ {
		r.push(&Event{Name: "e", Comp: CompWorkload, Phase: 'i', Time: i}, nil)
	}
	if r.Len() != 3 || r.Evicted() != 0 || r.Total() != 3 {
		t.Fatalf("pre-wrap: len %d evicted %d total %d, want 3 0 3", r.Len(), r.Evicted(), r.Total())
	}
	for i := uint64(3); i < 10; i++ {
		r.push(&Event{Name: "e", Comp: CompWorkload, Phase: 'i', Time: i}, nil)
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
	r.push(&Event{Time: 1}, nil)
	r.push(&Event{Time: 2}, nil)
	if r.Len() != 1 || r.Events()[0].Time != 2 {
		t.Fatalf("1-slot ring keeps newest: len %d events %v", r.Len(), r.Events())
	}

	var nilRing *EventRing
	nilRing.push(&Event{}, nil)
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

// TestRingSlotPointerFree pins the ring's storage layout: a slot holds no
// pointer the garbage collector would scan, and stays within 96 bytes.
func TestRingSlotPointerFree(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !pointerFree(typ.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return pointerFree(typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		}
		return false
	}
	typ := reflect.TypeOf(ringSlot{})
	if !pointerFree(typ) {
		t.Errorf("ringSlot holds a pointer: %v", typ)
	}
	if typ.Size() > 96 {
		t.Errorf("ringSlot is %d B, want <= 96", typ.Size())
	}
}

// TestRingRoundTrip: Events rebuilds every pushed event exactly, across
// every argument kind, strings that share bytes or differ only in length,
// a string built at run time, events too wide for a slot (more than four
// arguments, a pid or tid outside int32), and slots reused after wrapping.
func TestRingRoundTrip(t *testing.T) {
	name := strings.Repeat("x", 3) + ".dyn" // not a literal: its own data pointer
	long := "lock.wait"
	evs := []Event{
		{Name: "bus.gets", Comp: CompMem, Phase: 'i', Pid: 1, Tid: 7, Time: 10,
			Args: []Arg{Str("src", "c2c"), U64("addr", 1<<40)}},
		{Name: long, Comp: CompOS, Phase: 'X', Tid: -1, Time: 20, Dur: 400,
			Args: []Arg{Str("kind", long[:4]), I64("d", -3), F64("f", math.Pi), Bool("b", true)}},
		{Name: long[:4], Comp: CompOS, Phase: 'i', Time: 30, Args: []Arg{Str("", ""), Bool("b", false)}},
		{Name: name, Comp: CompFault, Phase: 'X', Time: 40, Dur: 1,
			Args: []Arg{U64("a", 1), U64("b", 2), U64("c", 3), U64("d", 4), Str("e", name)}},
		{Name: "wide.pid", Comp: CompNet, Phase: 'i', Pid: math.MaxInt32 + 1, Time: 50},
		{Name: "wide.tid", Comp: CompNet, Phase: 'i', Tid: math.MinInt32 - 1, Time: 60, Args: []Arg{U64("peer", 2)}},
		{Name: "", Comp: CompWorkload, Phase: 'X', Time: 70},
		{Name: "gc.minor", Comp: CompJVM, Phase: 'X', Pid: math.MaxInt32, Tid: math.MinInt32, Time: 80, Dur: 9,
			Args: []Arg{U64("live_bytes", 5), U64("copied_objs", 6), U64("freed_bytes", 7), U64("workers", 8)}},
	}
	for _, capacity := range []int{len(evs), 3} {
		r := NewEventRing(capacity)
		for round := 0; round < 3; round++ {
			for i := range evs {
				r.push(&evs[i], evs[i].Args)
			}
		}
		want := evs[len(evs)-min(capacity, len(evs)):]
		if got := r.Events(); !reflect.DeepEqual(got, want) {
			t.Errorf("capacity %d:\n got %+v\nwant %+v", capacity, got, want)
		}
		if wide := map[int]int{len(evs): 3, 3: 1}[capacity]; len(r.wide) != wide {
			t.Errorf("capacity %d: %d side-table events, want %d (only held events stay)", capacity, len(r.wide), wide)
		}
	}
}
