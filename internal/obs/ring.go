package obs

import "unsafe"

// EventRing is a fixed-capacity ring of trace events that overwrites its
// oldest entry when full — the storage behind the flight recorder's
// "last N events" window. Unlike the Tracer's linear buffer (which stops
// recording at its cap and counts drops), the ring always holds the most
// recent events, so a post-mortem dump sees the moments before the trigger
// no matter how long the run has been going.
//
// Slots are packed and hold no pointers, so a full ring is one flat
// allocation per chunk that the garbage collector never scans. A slot
// stores an event's strings — its name, argument keys and string argument
// values — as indices into the ring's string table, which holds each
// distinct string once; emit sites use a small fixed vocabulary, so the
// table stays a few dozen entries. An event that does not fit a slot (more
// than ringSlotArgs arguments, or a pid or tid outside int32) is kept whole
// in a side table instead. A walk rebuilds the exact Events that were
// pushed.
//
// Slots live in chunks allocated the first time the ring reaches them, so
// a large ring costs nothing up front, and a push copies into its slot
// instead of allocating.
//
// A nil *EventRing is valid and inert.
type EventRing struct {
	chunks   [][]ringSlot
	capacity int
	n        int // events held
	next     int // slot the next push writes
	evicted  uint64

	// strs is the string table; strs[0] is "". index finds a string's
	// entry, and recent caches the lookup by string data pointer and
	// length, which for the string literals most emit sites pass skips
	// hashing the bytes.
	strs   []string
	index  map[string]uint32
	recent [1 << internCacheBits]internEntry

	// wide holds, by slot index, the events whose slot is marked
	// wideSlot.
	wide map[int]Event
}

// ringSlot is one packed event: ring storage holds no pointers.
type ringSlot struct {
	time, dur uint64
	pid, tid  int32
	name      uint32 // string-table index
	comp      Component
	phase     byte
	nargs     uint8 // arguments in args, or wideSlot
	args      [ringSlotArgs]ringArg
}

// ringArg is one packed argument: val is the Arg's num, or for a string
// argument the string-table index of its value.
type ringArg struct {
	key  uint32
	kind argKind
	val  uint64
}

// internEntry is one recent-lookup cache line. Holding the data pointer
// keeps the string alive, so an equal pointer and length are the same
// string.
type internEntry struct {
	p   *byte
	n   int
	idx uint32
}

const (
	// ringSlotArgs fits every event the simulator emits; an event with
	// more arguments is kept whole in the side table.
	ringSlotArgs = 4
	// wideSlot marks a slot whose event lives in the side table.
	wideSlot = 0xff
	// ringChunk is the number of slots allocated at a time.
	ringChunk = 1024
	// internCacheBits sizes the recent-lookup cache: 64 lines.
	internCacheBits = 6
)

// NewEventRing returns a ring holding at most capacity events (minimum 1).
func NewEventRing(capacity int) *EventRing {
	capacity = max(capacity, 1)
	return &EventRing{
		capacity: capacity,
		chunks:   make([][]ringSlot, (capacity+ringChunk-1)/ringChunk),
		strs:     []string{""},
		index:    map[string]uint32{"": 0},
	}
}

// push stores a copy of *e with a copy of args (e.Args is ignored),
// evicting the oldest event when the ring is full. Neither e nor args
// escapes.
func (r *EventRing) push(e *Event, args []Arg) {
	if r == nil {
		return
	}
	i := r.next
	s := r.slot(i)
	if r.next++; r.next == r.capacity {
		r.next = 0
	}
	if r.n == r.capacity {
		r.evicted++
	} else {
		r.n++
	}
	if s.nargs == wideSlot {
		delete(r.wide, i)
	}
	if len(args) > ringSlotArgs || int(int32(e.Pid)) != e.Pid || int(int32(e.Tid)) != e.Tid {
		ev := *e
		ev.Args = append([]Arg(nil), args...)
		if r.wide == nil {
			r.wide = map[int]Event{}
		}
		r.wide[i] = ev
		s.nargs = wideSlot
		return
	}
	s.time, s.dur = e.Time, e.Dur
	s.pid, s.tid = int32(e.Pid), int32(e.Tid)
	s.name = r.intern(e.Name)
	s.comp, s.phase = e.Comp, e.Phase
	s.nargs = uint8(len(args))
	for k := range args {
		a := &args[k]
		val := a.num
		if a.kind == argStr {
			val = uint64(r.intern(a.str))
		}
		s.args[k] = ringArg{key: r.intern(a.Key), kind: a.kind, val: val}
	}
}

// intern returns s's string-table index, adding s on first sight.
func (r *EventRing) intern(s string) uint32 {
	p := unsafe.StringData(s)
	c := &r.recent[uint64(uintptr(unsafe.Pointer(p)))*0x9E3779B97F4A7C15>>(64-internCacheBits)]
	if c.p != p || c.n != len(s) {
		r.internSlow(s, c)
	}
	return c.idx
}

// internSlow looks s up by value and refills cache line c with it. It is
// kept out of line so that intern's cache hit inlines into push.
//
//go:noinline
func (r *EventRing) internSlow(s string, c *internEntry) {
	idx, ok := r.index[s]
	if !ok {
		idx = uint32(len(r.strs))
		r.strs = append(r.strs, s)
		r.index[s] = idx
	}
	*c = internEntry{p: unsafe.StringData(s), n: len(s), idx: idx}
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

// walk calls fn with each held event that overlaps [from, to], oldest
// first; an event ending before from or starting after to is skipped. An
// event stored in a slot is rebuilt in one Event reused for every call,
// its arguments in a fixed array, and a side-table event is passed whole,
// so a walk allocates nothing per event; the *Event and its Args are valid
// only until fn returns.
func (r *EventRing) walk(from, to uint64, fn func(*Event)) {
	if r == nil {
		return
	}
	var buf struct {
		ev   Event
		args [ringSlotArgs]Arg
	}
	e := &buf.ev
	for k := range r.n {
		i := r.next - r.n + k
		if i < 0 {
			i += r.capacity
		}
		s := r.slot(i)
		if s.nargs == wideSlot {
			*e = r.wide[i]
		} else {
			*e = Event{
				Name: r.strs[s.name], Comp: s.comp, Phase: s.phase,
				Pid: int(s.pid), Tid: int(s.tid), Time: s.time, Dur: s.dur,
			}
		}
		if e.Time+e.Dur < from || e.Time > to {
			continue
		}
		if s.nargs != wideSlot && s.nargs > 0 {
			for j, a := range s.args[:s.nargs] {
				arg := Arg{Key: r.strs[a.key], kind: a.kind, num: a.val}
				if a.kind == argStr {
					arg.num, arg.str = 0, r.strs[a.val]
				}
				buf.args[j] = arg
			}
			e.Args = buf.args[:s.nargs]
		}
		fn(e)
	}
}
