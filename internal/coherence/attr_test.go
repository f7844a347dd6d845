package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs/attr"
	"repro/internal/simrand"
)

// driveAttr runs randomized mixed traffic over a bus with an exact-mode
// attribution collector attached and returns bus and collector.
func driveAttr(t *testing.T, proto Protocol, nodes, accesses int, seed uint64) (*Bus, *attr.Collector) {
	t.Helper()
	b := NewBus()
	b.Protocol = proto
	c := attr.NewCollector(attr.Options{Exact: true})
	b.Attr = c
	geo := cache.Config{Name: "L2", SizeBytes: 16 << 10, Assoc: 2, BlockBytes: 64}
	var ns []*Node
	for i := 0; i < nodes; i++ {
		ns = append(ns, b.AddNode(cache.New(geo), nil))
	}
	rng := simrand.New(seed)
	blocks := uint64(geo.SizeBytes) / uint64(geo.BlockBytes) * 3
	for i := 0; i < accesses; i++ {
		n := rng.Intn(nodes)
		ba := uint64(rng.Int63n(int64(blocks))) * uint64(geo.BlockBytes)
		if rng.Bool(0.3) {
			ns[n].Write(mem.Addr(ba), uint64(i))
		} else {
			ns[n].Read(mem.Addr(ba), uint64(i))
		}
	}
	return b, c
}

// TestAttrConservation is the exact-mode conservation property: every event
// the bus counts globally must have been attributed to exactly one line, so
// the per-line sums equal the bus's Stats counters for every event class.
func TestAttrConservation(t *testing.T) {
	for _, proto := range []Protocol{MOSI, MSI, MESI} {
		for _, nodes := range []int{2, 4, 8} {
			b, c := driveAttr(t, proto, nodes, 40000, 0xA77+uint64(nodes))
			sum := c.SumCounts()
			st := b.Stats
			if sum.GetS != st.GetS {
				t.Errorf("%v/%d nodes: attributed GetS %d != bus GetS %d", proto, nodes, sum.GetS, st.GetS)
			}
			if sum.GetM != st.GetM {
				t.Errorf("%v/%d nodes: attributed GetM %d != bus GetM %d", proto, nodes, sum.GetM, st.GetM)
			}
			if sum.Upgrades != st.Upgrades {
				t.Errorf("%v/%d nodes: attributed upgrades %d != bus upgrades %d", proto, nodes, sum.Upgrades, st.Upgrades)
			}
			if sum.C2C != st.C2CTransfers {
				t.Errorf("%v/%d nodes: attributed C2C %d != bus C2C %d", proto, nodes, sum.C2C, st.C2CTransfers)
			}
			if sum.Writebacks != st.Writebacks {
				t.Errorf("%v/%d nodes: attributed writebacks %d != bus writebacks %d", proto, nodes, sum.Writebacks, st.Writebacks)
			}
			if sum.Invals != st.Invalidations {
				t.Errorf("%v/%d nodes: attributed invalidations %d != bus invalidations %d", proto, nodes, sum.Invals, st.Invalidations)
			}
			if got, want := c.Events(), st.GetS+st.GetM+st.Upgrades+st.Writebacks+st.Invalidations; got != want {
				t.Errorf("%v/%d nodes: recorded events %d != bus event total %d", proto, nodes, got, want)
			}
		}
	}
}

// TestAttrIdenticalAcrossSnoopModes drives the filtered Bus and the
// brute-force refBus with identical traffic: attribution sums and event
// counts, like Stats, must not depend on which snoop implementation
// answered.
func TestAttrIdenticalAcrossSnoopModes(t *testing.T) {
	geo := cache.Config{Name: "L2", SizeBytes: 16 << 10, Assoc: 2, BlockBytes: 64}
	p := newBusPair(MOSI, 4, geo)
	p.run(t, 0xC0117, 30000)
	p.verify(t)
}
