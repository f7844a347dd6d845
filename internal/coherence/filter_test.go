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
