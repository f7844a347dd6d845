package coherence

import (
	"fmt"
	"testing"

	"repro/internal/cache"
)

// TestSnoopFilterEquivalence is the snoop-filter equivalence suite: the
// filtered Bus and the brute-force refBus are driven with identical
// randomized traffic and must agree on every observable — transaction
// counters, per-line communication profile, C2C timeline, invalidation
// callbacks, and the final state/dirty bit of every block in every cache.
// The duplicate-tag filter is an optimization, never a behavior change.
func TestSnoopFilterEquivalence(t *testing.T) {
	geos := []cache.Config{
		{Name: "L2", SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 64},
		{Name: "L2", SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 32},
	}
	for _, proto := range []Protocol{MOSI, MSI, MESI} {
		for _, nodes := range []int{2, 4, 8} {
			for gi, geo := range geos {
				t.Run(fmt.Sprintf("%v/%dnodes/geo%d", proto, nodes, gi), func(t *testing.T) {
					p := newBusPair(proto, nodes, geo)
					p.run(t, uint64(0xF117E4+nodes+gi), 60000)
					p.verify(t)
				})
			}
		}
	}
}

// TestFilterTableProbeLength: the snoop filter's table keeps linear-probe
// clusters as short as a uniform hash would. Resident blocks come from a
// few 4 MB-aligned regions, as mem.AddrSpace lays out heaps and code; at
// the load factors the timed runs reach, the mean successful-search probe
// length stays within 1.25x of Knuth's (1 + 1/(1-a))/2 for load a.
func TestFilterTableProbeLength(t *testing.T) {
	const regionBlocks = 4 << 20 >> 6
	for _, keys := range []int{91_544, 77_700, 40_000} {
		tab := newFilterTable()
		seen := map[uint64]bool{}
		x := uint64(0x5EED)
		for len(seen) < keys {
			x = x*6364136223846793005 + 1442695040888963407
			region := x >> 60 // 16 regions
			blk := (0x40+region*3)*regionBlocks + x>>20%regionBlocks
			ba := blk << 6
			if !seen[ba] {
				seen[ba] = true
				*tab.ref(ba) = 1
			}
		}
		var probes int
		for j, s := range tab.slots {
			if s.val != 0 {
				probes += int((uint64(j)-tab.hash(s.key))&tab.mask) + 1
			}
		}
		load := float64(tab.n) / float64(len(tab.slots))
		mean := float64(probes) / float64(tab.n)
		knuth := (1 + 1/(1-load)) / 2
		t.Logf("%d keys in %d slots (load %.2f): mean probe %.2f, Knuth %.2f", tab.n, len(tab.slots), load, mean, knuth)
		if mean > 1.25*knuth {
			t.Errorf("load %.2f: mean probe length %.2f, more than 1.25x Knuth's %.2f", load, mean, knuth)
		}
	}
}

// shared reports whether the table still points at the one shared empty
// slot.
func (t *filterTable) shared() bool { return &t.slots[0] == &emptySlots[0] }

// TestFilterTableStartsEmpty: a bus with nodes attached and no transactions
// holds the shared one-slot table, and one transaction gives it its own
// 2^16 slots.
func TestFilterTableStartsEmpty(t *testing.T) {
	b, a, _ := twoNodes()
	if !b.filter.shared() || len(b.filter.slots) != 1 || b.filter.n != 0 {
		t.Fatalf("idle bus holds %d slots (shared %v), want the shared one", len(b.filter.slots), b.filter.shared())
	}
	a.Read(0x1000, 0)
	if b.filter.shared() || len(b.filter.slots) != 1<<initialFilterBits || b.filter.n != 1 {
		t.Fatalf("after one fill: %d slots, %d entries (shared %v), want %d and 1",
			len(b.filter.slots), b.filter.n, b.filter.shared(), 1<<initialFilterBits)
	}
}

// TestFilterTableGrowth: the first ref allocates 2^16 slots and every growth
// after it doubles at three-quarters load, and each key lands in the same
// slot as in a table allocated at 2^16 slots up front, so probe order is
// unchanged from the eager table.
func TestFilterTableGrowth(t *testing.T) {
	lazy := newFilterTable()
	const first = 1 << initialFilterBits
	eager := filterTable{slots: make([]fslot, first), mask: first - 1, shift: 64 - initialFilterBits}
	var sizes []int
	x := uint64(0x5EED)
	for i := 0; i < 120_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		ba := (x >> 20) << 6
		for _, tab := range []*filterTable{&lazy, &eager} {
			*tab.ref(ba) = uint64(i) + 1
		}
		if n := len(lazy.slots); len(sizes) == 0 || sizes[len(sizes)-1] != n {
			sizes = append(sizes, n)
		}
		if i%16 == 0 {
			lazy.del(ba)
			eager.del(ba)
		}
	}
	if want := []int{first, 2 * first, 4 * first}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("table sizes %v, want %v", sizes, want)
	}
	if lazy.n != eager.n || lazy.mask != eager.mask || lazy.shift != eager.shift || lazy.zeroVal != eager.zeroVal {
		t.Fatalf("lazy table (n %d, mask %#x, shift %d) != eager (n %d, mask %#x, shift %d)",
			lazy.n, lazy.mask, lazy.shift, eager.n, eager.mask, eager.shift)
	}
	for i := range lazy.slots {
		if lazy.slots[i] != eager.slots[i] {
			t.Fatalf("slot %d: lazy %+v, eager %+v", i, lazy.slots[i], eager.slots[i])
		}
	}
}

// TestEmptyFilterTableReadOnly: lookup, del and the evictions that call
// them find nothing on a new table and never write the shared slot. Two
// buses probe it at once, so go test -race reports a write as a race.
func TestEmptyFilterTableReadOnly(t *testing.T) {
	done := make(chan *Bus)
	for range 2 {
		go func() {
			b, _, _ := twoNodes()
			for i := uint64(0); i < 1000; i++ {
				ba := i << 6
				if b.filter.lookup(ba) != nil {
					t.Errorf("lookup(%#x) found an entry in an empty table", ba)
				}
				b.filter.del(ba)
				b.filterEvict(int(i%2), ba)
			}
			done <- b
		}()
	}
	for range 2 {
		if b := <-done; !b.filter.shared() || b.filter.n != 0 {
			t.Errorf("bus left the shared table (%d slots, %d entries)", len(b.filter.slots), b.filter.n)
		}
	}
	if emptySlots != [1]fslot{} {
		t.Fatalf("shared empty slot written: %+v", emptySlots[0])
	}
}
