package core

import (
	"fmt"

	"repro/internal/coherence"
)

// This file holds the ablation studies DESIGN.md calls out: experiments the
// paper motivates in prose but does not plot, each isolating one design
// choice of the modeled system.
//
//   - ISM (§3.2, §6): the paper tuned Solaris with Intimate Shared Memory
//     (4 MB pages) and reports ECperf gained >10% from it. ismStudy
//     re-runs with base 8 KB pages and a 64-entry TLB.
//   - Collector parallelism (§4.1): "the JVM we ran uses a single-threaded
//     garbage collector ... during collection only 1 processor is active".
//     gcThreadsStudy gives the collector 1, 2, 4, and 8 threads.
//   - Cache-to-cache latency (§4.3): on the E6000 a dirty transfer costs
//     ~40% more than memory; on NUMA directory machines 200-300% more.
//     c2cLatencyStudy sweeps that penalty.
//   - Protocol (§4.5): the paper reasons about GC behavior under "a simple
//     MSI invalidation protocol". protocolStudy runs MSI, MESI, and the
//     E6000's MOSI.
//
// Every study's cells are AblationCell with one parameter varied.

// ismStudy compares ECperf with ISM (4 MB pages, the paper's tuning)
// against base 8 KB pages. The paper reports ISM was worth >10%.
var ismStudy = &Experiment{
	Name: "ism",
	cells: func(st Study) []Cell {
		return vary(st.AblationCell(ECperf), []bool{false, true}, func(c *Cell, base bool) { c.Params.BasePages = base })
	},
	render: func(_ Study, rs []CellResult) []Figure {
		ism, base := rs[0], rs[1]
		return []Figure{{
			ID:     "Ablation: ISM",
			Title:  "Intimate Shared Memory (4 MB pages) vs. base 8 KB pages (ECperf)",
			XLabel: "configuration (0=ISM, 1=base pages)",
			YLabel: "Throughput (BBops/s)",
			Series: []Series{{
				Label: "ECperf",
				X:     []float64{0, 1},
				Y:     []float64{ism.Throughput, base.Throughput},
				Err:   []float64{0, 0},
			}},
			Notes: []string{
				fmt.Sprintf("ISM speedup over base pages: %.1f%% (paper: \"more than 10%%\")", 100*(ism.Throughput/base.Throughput-1)),
				fmt.Sprintf("base-page dTLB miss ratio %.3f; CPI with base pages %.2f", base.dtlbMissRatio, base.CPI),
			},
		}}
	},
}

// gcThreadsStudy gives the collector 1..8 threads on an 8-processor SPECjbb
// run: the single-threaded collector's idle tax disappears.
var gcThreadsStudy = &Experiment{
	Name: "gc",
	cells: func(st Study) []Cell {
		base := st.AblationCell(SPECjbb)
		// Collections are sparse; give this study a window long enough to
		// contain several.
		base.Measure *= 3
		return vary(base, []int{1, 2, 4, 8}, func(c *Cell, threads int) { c.Params.GCThreads = threads })
	},
	render: func(_ Study, rs []CellResult) []Figure {
		thrS := Series{Label: "throughput"}
		idleS := Series{Label: "GC idle frac ×1e5"}
		for _, r := range rs {
			threads := float64(r.Cell.Params.GCThreads)
			thrS.X = append(thrS.X, threads)
			thrS.Y = append(thrS.Y, r.Throughput)
			thrS.Err = append(thrS.Err, 0)
			idleS.X = append(idleS.X, threads)
			idleS.Y = append(idleS.Y, 1e5*r.GCIdleFrac)
			idleS.Err = append(idleS.Err, 0)
		}
		return []Figure{{
			ID:     "Ablation: GC threads",
			Title:  "Collector parallelism (SPECjbb, 8 processors)",
			XLabel: "GC threads",
			YLabel: "Throughput (transactions/s)",
			Series: []Series{thrS, idleS},
			Notes: []string{fmt.Sprintf("8-thread collector vs single-threaded: %+.1f%% throughput",
				100*(thrS.Y[len(thrS.Y)-1]/thrS.Y[0]-1))},
		}}
	},
}

// c2cLatencyStudy sweeps the dirty-transfer penalty from SMP-like to
// NUMA-like, on both workloads. The paper (§4.3): NUMA systems pay 2-3× the
// memory latency per cache-to-cache transfer, so sharing-heavy workloads
// suffer disproportionately there.
var c2cLatencyStudy = &Experiment{
	Name: "latency",
	cells: func(st Study) []Cell {
		var cells []Cell
		for _, kind := range []Kind{ECperf, SPECjbb} {
			cells = append(cells, vary(st.AblationCell(kind), []uint64{75, 105, 150, 225},
				func(c *Cell, lat uint64) { c.Params.C2CLatency = lat })...)
		}
		return cells
	},
	render: func(_ Study, rs []CellResult) []Figure {
		f := Figure{
			ID:     "Ablation: C2C latency",
			Title:  "Sensitivity to cache-to-cache transfer latency (8 processors)",
			XLabel: "C2C latency (cycles; memory = 75)",
			YLabel: "Throughput relative to E6000 latency",
		}
		n := len(rs) / 2
		for _, kind := range [][]CellResult{rs[:n], rs[n:]} {
			s := Series{Label: kind[0].Cell.Params.Kind.String()}
			var base float64
			for _, r := range kind {
				if r.Cell.Params.C2CLatency == 105 { // the E6000's
					base = r.Throughput
				}
				s.X = append(s.X, float64(r.Cell.Params.C2CLatency))
				s.Y = append(s.Y, r.Throughput)
				s.Err = append(s.Err, 0)
			}
			for i := range s.Y {
				s.Y[i] /= base
			}
			f.Series = append(f.Series, s)
		}
		return []Figure{f}
	},
}

// protocolStudy runs the bus under MSI, MESI, and MOSI and reports the
// cache-to-cache ratio and bus traffic for SPECjbb.
var protocolStudy = &Experiment{
	Name: "protocol",
	cells: func(st Study) []Cell {
		return vary(st.AblationCell(SPECjbb), []coherence.Protocol{coherence.MOSI, coherence.MSI, coherence.MESI},
			func(c *Cell, p coherence.Protocol) { c.Params.Protocol = p })
	},
	render: func(_ Study, rs []CellResult) []Figure {
		f := Figure{
			ID:     "Ablation: protocol",
			Title:  "Invalidation protocol (SPECjbb, 8 processors)",
			XLabel: "protocol (0=MOSI, 1=MSI, 2=MESI)",
			YLabel: "value",
		}
		c2c := Series{Label: "C2C ratio (%)"}
		thr := Series{Label: "throughput (k tx/s)"}
		for i, r := range rs {
			c2c.X = append(c2c.X, float64(i))
			c2c.Y = append(c2c.Y, 100*r.C2CRatio)
			c2c.Err = append(c2c.Err, 0)
			thr.X = append(thr.X, float64(i))
			thr.Y = append(thr.Y, r.Throughput/1000)
			thr.Err = append(thr.Err, 0)
			f.Notes = append(f.Notes, fmt.Sprintf("%v: c2c ratio %.1f%%, writebacks %d, upgrades %d",
				r.Cell.Params.Protocol, 100*r.C2CRatio, r.writebacks, r.upgrades))
		}
		f.Series = append(f.Series, c2c, thr)
		return []Figure{f}
	},
}

// KernelTimeStudy reproduces the §6 comparison with VolanoMark:
// thread-per-connection chat traffic is kernel-dominated, while the
// middleware benchmarks are not ("the middle tier of the ECperf benchmark
// spends much less time in the kernel than VolanoMark. SPECjbb also has a
// much lower kernel component").
var KernelTimeStudy = &Experiment{
	Name: "volano",
	cells: func(st Study) []Cell {
		return []Cell{st.AblationCell(SPECjbb), st.AblationCell(ECperf), st.AblationCell(VolanoMark)}
	},
	render: func(_ Study, rs []CellResult) []Figure {
		f := Figure{
			ID:     "Related work: VolanoMark",
			Title:  "Kernel (system) time share by workload (8 processors)",
			XLabel: "workload (0=SPECjbb, 1=ECperf, 2=VolanoMark)",
			YLabel: "System time (% of busy time)",
		}
		s := Series{Label: "system %"}
		for i, r := range rs {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, r.systemBusyPct)
			s.Err = append(s.Err, 0)
			f.Notes = append(f.Notes, fmt.Sprintf("%v: system %.1f%% of busy time", r.Cell.Params.Kind, r.systemBusyPct))
		}
		f.Series = append(f.Series, s)
		return []Figure{f}
	},
}
