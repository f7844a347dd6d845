package memsys

import (
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/simrand"
)

// filterEquivGolden is what the machine produces for each cpusPerL2 shape
// under the traffic below: final bus counters and the hierarchy's
// data/fetch miss counts. They were recorded when a brute-force snooping
// machine still ran beside the filtered one and matched it exactly.
var filterEquivGolden = map[int]struct {
	stats               coherence.Stats
	dataMiss, fetchMiss uint64
}{
	1: {coherence.Stats{GetS: 41712, GetM: 20610, Upgrades: 4195, C2CTransfers: 18816, MemTransfers: 43506,
		Writebacks: 15932, Invalidations: 17637, L2Hits: 9790}, 41454, 20868},
	2: {coherence.Stats{GetS: 40873, GetM: 20064, Upgrades: 4137, C2CTransfers: 6852, MemTransfers: 54085,
		Writebacks: 20725, Invalidations: 6304, L2Hits: 11758}, 40615, 20322},
	4: {coherence.Stats{GetS: 39966, GetM: 20103, Upgrades: 3993, C2CTransfers: 0, MemTransfers: 60069,
		Writebacks: 23674, Invalidations: 0, L2Hits: 13662}, 40137, 19932},
}

// TestSnoopFilterEquivalenceMemsys checks the snoop filter through the full
// hierarchy (L1s, sibling invalidation, shared-L2 grouping) rather than raw
// bus nodes, for private and shared-cache shapes, including the one-node
// bus of cpusPerL2=4. The sanitizer compares the filter against a probe of
// every node after each transaction, and the final counters must reproduce
// the goldens. The bus-level comparison against the brute-force reference
// lives in internal/coherence.
func TestSnoopFilterEquivalenceMemsys(t *testing.T) {
	for _, perL2 := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("cpusPerL2=%d", perL2), func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.CPUsPerL2 = perL2
			cfg.L2.SizeBytes = 64 << 10
			h := New(cfg)
			h.Bus().Sanitize = true

			rng := simrand.New(0xCAFE + uint64(perL2))
			for i := 0; i < 80000; i++ {
				cpu := rng.Intn(cfg.CPUs)
				addr := mem.Addr(rng.Int63n(1 << 18))
				now := uint64(i)
				switch rng.Intn(3) {
				case 0:
					h.Read(cpu, addr, now)
				case 1:
					h.Write(cpu, addr, now)
				default:
					h.Fetch(cpu, addr, now)
				}
			}
			want := filterEquivGolden[perL2]
			if h.Bus().Stats != want.stats {
				t.Errorf("bus stats:\ngot  %+v\nwant %+v", h.Bus().Stats, want.stats)
			}
			if h.DataMisses != want.dataMiss || h.FetchMisses != want.fetchMiss {
				t.Errorf("hierarchy misses: data %d fetch %d, want data %d fetch %d",
					h.DataMisses, h.FetchMisses, want.dataMiss, want.fetchMiss)
			}
		})
	}
}
