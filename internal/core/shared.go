package core

import "repro/internal/stats"

// SharedCacheStudy reproduces Figure 16: data miss rate with 1/2/4/8
// processors per shared 1 MB L2 cache, for ECperf and SPECjbb-25. Sharing
// helps ECperf (coherence misses vanish, small footprint) and hurts
// SPECjbb-25 (the emulated database no longer fits). Each cell is one
// (workload, grouping, seed) run on an 8-processor machine: SPECjbb at 25
// warehouses (the paper's capacity-stressing configuration), ECperf at its
// standard injection rate.
var SharedCacheStudy = &Experiment{
	Name: "shared-cache CMP study",
	Figs: []int{16},
	cells: func(st Study) []Cell {
		var cells []Cell
		for _, w := range sharedCacheSpecs {
			for _, g := range st.preset().grouping {
				for _, seed := range st.SeedList() {
					cells = append(cells, st.cell(st.preset().shared, SystemParams{
						Kind: w.kind, Processors: 8, TotalCPUs: 8, CPUsPerL2: g, Scale: w.scale, Seed: seed,
					}))
				}
			}
		}
		return cells
	},
	render: func(st Study, rs []CellResult) []Figure {
		f := Figure{
			ID:     "Fig 16",
			Title:  "Cache Miss Rate on Shared Caches (Processors Per Shared 1 MB Cache)",
			XLabel: "Processors per shared L2",
			YLabel: "Data misses / 1000 instructions",
		}
		grouping := st.preset().grouping
		ng, ns := len(grouping), len(st.SeedList())
		for ki, w := range sharedCacheSpecs {
			s := Series{Label: w.label}
			for gi, g := range grouping {
				var sum stats.Summary
				for _, r := range rs[(ki*ng+gi)*ns:][:ns] {
					sum.Add(r.dataMPKI)
				}
				s.X = append(s.X, float64(g))
				s.Y = append(s.Y, sum.Mean())
				s.Err = append(s.Err, sum.StdDev())
			}
			f.Series = append(f.Series, s)
		}
		return []Figure{f}
	},
}

// sharedCacheSpecs are Figure 16's workloads in series order: SPECjbb at 25
// warehouses, ECperf at its standard injection rate.
var sharedCacheSpecs = []workloadSpec{{ECperf, 0, "ECperf"}, {SPECjbb, 25, "SPECjbb-25"}}
