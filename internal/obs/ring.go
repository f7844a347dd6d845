package obs

// EventRing is a fixed-capacity ring of trace events that overwrites its
// oldest entry when full — the storage behind the flight recorder's
// "last N events" window. Unlike the Tracer's linear buffer (which stops
// recording at its cap and counts drops), the ring always holds the most
// recent events, so a post-mortem dump sees the moments before the trigger
// no matter how long the run has been going.
//
// Slots live in chunks allocated the first time the ring reaches them, so
// a large ring costs nothing up front, and each slot owns storage for its
// event's arguments, so a push copies instead of allocating.
//
// A nil *EventRing is valid and inert.
type EventRing struct {
	chunks   [][]ringSlot
	capacity int
	n        int // events held
	next     int // slot the next push writes
	evicted  uint64
}

// ringSlot is one event plus the argument storage its Args point into.
type ringSlot struct {
	ev   Event
	args [ringSlotArgs]Arg
}

const (
	// ringSlotArgs fits every event the simulator emits; an event with
	// more arguments gets its own copy.
	ringSlotArgs = 4
	// ringChunk is the number of slots allocated at a time.
	ringChunk = 1024
)

// NewEventRing returns a ring holding at most capacity events (minimum 1).
func NewEventRing(capacity int) *EventRing {
	capacity = max(capacity, 1)
	return &EventRing{capacity: capacity, chunks: make([][]ringSlot, (capacity+ringChunk-1)/ringChunk)}
}

// Push appends an event, evicting the oldest when the ring is full.
func (r *EventRing) Push(e Event) {
	r.push(&e, e.Args)
}

// push stores a copy of *e with a copy of args (e.Args is ignored),
// evicting the oldest event when the ring is full. Neither e nor args
// escapes.
func (r *EventRing) push(e *Event, args []Arg) {
	if r == nil {
		return
	}
	s := r.slot(r.next)
	if r.next++; r.next == r.capacity {
		r.next = 0
	}
	if r.n == r.capacity {
		r.evicted++
	} else {
		r.n++
	}
	s.ev = *e
	switch n := len(args); {
	case n == 0:
		s.ev.Args = nil
	case n <= ringSlotArgs:
		s.ev.Args = s.args[:n:n]
		copy(s.ev.Args, args)
	default:
		s.ev.Args = append([]Arg(nil), args...)
	}
}

// slot returns slot i, allocating its chunk on first use.
func (r *EventRing) slot(i int) *ringSlot {
	c := &r.chunks[i/ringChunk]
	if *c == nil {
		*c = make([]ringSlot, min(ringChunk, r.capacity-i))
	}
	return &(*c)[i%ringChunk]
}

// Len returns the number of events currently held.
func (r *EventRing) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Cap returns the ring's capacity.
func (r *EventRing) Cap() int {
	if r == nil {
		return 0
	}
	return r.capacity
}

// Evicted returns how many events were overwritten by newer ones.
func (r *EventRing) Evicted() uint64 {
	if r == nil {
		return 0
	}
	return r.evicted
}

// Total returns how many events were ever pushed.
func (r *EventRing) Total() uint64 {
	if r == nil {
		return 0
	}
	return uint64(r.n) + r.evicted
}

// Events returns the held events oldest-first. It is a deep copy, Args
// included, so it stays valid while the ring keeps recording.
func (r *EventRing) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Event, r.n)
	nargs := 0
	for k := range out {
		out[k] = r.slot((r.next - r.n + k + r.capacity) % r.capacity).ev
		nargs += len(out[k].Args)
	}
	args := make([]Arg, 0, nargs)
	for k := range out {
		if a := out[k].Args; len(a) > 0 {
			args = append(args, a...)
			out[k].Args = args[len(args)-len(a) : len(args) : len(args)]
		}
	}
	return out
}
