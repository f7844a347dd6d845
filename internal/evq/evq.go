// Package evq is the simulator's one event queue: a typed binary min-heap
// of timestamped values. The playback engine's wakeups, the open cluster's
// events and its per-shard slot releases all use it.
//
// Items order by (At, Seq). Callers that need a deterministic pop order
// give every item a unique Seq — typically an insertion counter — which
// makes the order total and independent of the heap's array layout. The
// comparison reads the two uint64 fields directly, with no less-func or
// interface call, and values move by copy without boxing.
package evq

// Item is one queued value due at At; Seq breaks ties.
type Item[T any] struct {
	At, Seq uint64
	V       T
}

// Queue is a min-heap of items ordered by (At, Seq). The zero value is an
// empty queue.
type Queue[T any] []Item[T]

// Len returns the number of queued items.
func (q Queue[T]) Len() int { return len(q) }

// Min returns the earliest item without removing it. The queue must not
// be empty.
func (q Queue[T]) Min() Item[T] { return q[0] }

// Push adds an item.
func (q *Queue[T]) Push(it Item[T]) {
	h := append(*q, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].At < it.At || h[p].At == it.At && h[p].Seq <= it.Seq {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	*q = h
}

// Pop removes and returns the earliest item. The queue must not be empty.
func (q *Queue[T]) Pop() Item[T] {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = Item[T]{} // drop the reference for the collector
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && (h[r].At < h[l].At || h[r].At == h[l].At && h[r].Seq < h[l].Seq) {
			l = r
		}
		if last.At < h[l].At || last.At == h[l].At && last.Seq <= h[l].Seq {
			break
		}
		h[i] = h[l]
		i = l
	}
	if n > 0 {
		h[i] = last
	}
	*q = h
	return top
}
