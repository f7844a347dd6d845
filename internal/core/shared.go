package core

import "repro/internal/stats"

// SharedCacheOpts size the Figure 16 CMP shared-cache study.
type SharedCacheOpts struct {
	// Grouping lists processors-per-shared-L2 values (the paper used
	// 1, 2, 4, 8 on an 8-processor machine with 1 MB L2 caches).
	Grouping      []int
	Seeds         []uint64
	WarmupCycles  uint64
	MeasureCycles uint64
}

// DefaultSharedCacheOpts is the full-fidelity configuration.
func DefaultSharedCacheOpts() SharedCacheOpts {
	return SharedCacheOpts{
		Grouping:      []int{1, 2, 4, 8},
		Seeds:         stats.Seeds(20030208, 3),
		WarmupCycles:  12_000_000,
		MeasureCycles: 40_000_000,
	}
}

// QuickSharedCacheOpts is the reduced test/bench configuration.
func QuickSharedCacheOpts() SharedCacheOpts {
	return SharedCacheOpts{
		Grouping:      []int{1, 8},
		Seeds:         stats.Seeds(20030208, 1),
		WarmupCycles:  4_000_000,
		MeasureCycles: 16_000_000,
	}
}

// sharedCacheCell measures one (workload, grouping, seed) run: L2 data
// misses per 1000 instructions on an 8-processor machine with the given
// L2 grouping. SPECjbb runs at 25 warehouses (the paper's
// capacity-stressing configuration); ECperf at its standard injection
// rate.
func sharedCacheCell(kind Kind, cpusPerL2 int, seed uint64, o SharedCacheOpts) float64 {
	scale := 0
	if kind == SPECjbb {
		scale = 25
	}
	sys := BuildSystem(SystemParams{
		Kind:       kind,
		Processors: 8,
		TotalCPUs:  8,
		CPUsPerL2:  cpusPerL2,
		Scale:      scale,
		Seed:       seed,
	})
	measurePoint(sys, nil, o.WarmupCycles, o.MeasureCycles)
	return sys.Hier.DataMissesPer1000(sys.Engine.Results().CPU.Instructions)
}

// ScheduleSharedCache submits every (workload, grouping, seed) cell of
// Figure 16 and returns the figure's renderer, which reads the cells once
// the scheduler has drained.
func ScheduleSharedCache(sched *Scheduler, o SharedCacheOpts) func() Figure {
	kinds := []Kind{ECperf, SPECjbb}
	ng, ns := len(o.Grouping), len(o.Seeds)
	vals := grid(sched, len(kinds)*ng*ns, func(i int) float64 {
		v := sharedCacheCell(kinds[i/(ng*ns)], o.Grouping[i/ns%ng], o.Seeds[i%ns], o)
		sched.Progress.AddCycles(o.WarmupCycles + o.MeasureCycles)
		return v
	})
	return func() Figure {
		f := Figure{
			ID:     "Fig 16",
			Title:  "Cache Miss Rate on Shared Caches (Processors Per Shared 1 MB Cache)",
			XLabel: "Processors per shared L2",
			YLabel: "Data misses / 1000 instructions",
		}
		for ki, kind := range kinds {
			label := kind.String()
			if kind == SPECjbb {
				label = "SPECjbb-25"
			}
			s := Series{Label: label}
			for gi, g := range o.Grouping {
				var sum stats.Summary
				for _, v := range vals[(ki*ng+gi)*ns:][:ns] {
					sum.Add(v)
				}
				s.X = append(s.X, float64(g))
				s.Y = append(s.Y, sum.Mean())
				s.Err = append(s.Err, sum.StdDev())
			}
			f.Series = append(f.Series, s)
		}
		return f
	}
}

// Fig16SharedCaches reproduces Figure 16: data miss rate with 1/2/4/8
// processors per shared 1 MB L2 cache, for ECperf and SPECjbb-25. Sharing
// helps ECperf (coherence misses vanish, small footprint) and hurts
// SPECjbb-25 (the emulated database no longer fits).
func Fig16SharedCaches(o SharedCacheOpts) Figure {
	return runPrivate(func(s *Scheduler) func() Figure { return ScheduleSharedCache(s, o) })()
}
