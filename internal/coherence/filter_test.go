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
