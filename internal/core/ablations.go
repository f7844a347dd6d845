package core

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/memsys"
)

// This file holds the ablation studies DESIGN.md calls out: experiments the
// paper motivates in prose but does not plot, each isolating one design
// choice of the modeled system.
//
//   - ISM (§3.2, §6): the paper tuned Solaris with Intimate Shared Memory
//     (4 MB pages) and reports ECperf gained >10% from it. AblationISM
//     re-runs with base 8 KB pages and a 64-entry TLB.
//   - Collector parallelism (§4.1): "the JVM we ran uses a single-threaded
//     garbage collector ... during collection only 1 processor is active".
//     AblationGCThreads gives the collector 1, 2, 4, and 8 threads.
//   - Cache-to-cache latency (§4.3): on the E6000 a dirty transfer costs
//     ~40% more than memory; on NUMA directory machines 200-300% more.
//     AblationC2CLatency sweeps that penalty.
//   - Protocol (§4.5): the paper reasons about GC behavior under "a simple
//     MSI invalidation protocol". AblationProtocol runs MSI, MESI, and the
//     E6000's MOSI.

// AblationOpts size the ablation runs.
type AblationOpts struct {
	Processors    int
	Seed          uint64
	WarmupCycles  uint64
	MeasureCycles uint64
	// MemModel selects the memory timing model for every study run
	// (default memsys.MemFixed).
	MemModel memsys.MemModel
}

// DefaultAblationOpts is the full-fidelity configuration.
func DefaultAblationOpts() AblationOpts {
	return AblationOpts{Processors: 8, Seed: 20030208, WarmupCycles: 10_000_000, MeasureCycles: 40_000_000}
}

// QuickAblationOpts is the reduced test/bench configuration.
func QuickAblationOpts() AblationOpts {
	return AblationOpts{Processors: 8, Seed: 20030208, WarmupCycles: 4_000_000, MeasureCycles: 16_000_000}
}

// ablationPoint runs one configured system and returns (throughput ops/s,
// CPI, the built system for extra metrics).
func ablationPoint(params SystemParams, o AblationOpts) (float64, ScalingPoint, *System) {
	params.MemModel = o.MemModel
	sys := BuildSystem(params)
	measureBare(sys, o.WarmupCycles, o.MeasureCycles)
	res := sys.Engine.Results()
	seconds := float64(o.MeasureCycles) / CyclesPerSecond
	thr := float64(res.BusinessOps) / seconds

	var p ScalingPoint
	p.Processors = params.Processors
	if res.CPU.Instructions > 0 {
		p.CPI = float64(res.CPU.Total()) / float64(res.CPU.Instructions)
		p.DStallCPI = float64(res.CPU.DStall()) / float64(res.CPU.Instructions)
	}
	p.GCWallFrac = float64(res.GCWall) / float64(o.MeasureCycles)
	if total := float64(res.Modes.Total()); total > 0 {
		p.GCIdleFrac = float64(res.Modes.GCIdle) / total
	}
	p.C2CRatio = sys.Hier.Bus().Stats.C2CRatio()
	return thr, p, sys
}

// AblationISM compares ECperf with ISM (4 MB pages, the paper's tuning)
// against base 8 KB pages. The paper reports ISM was worth >10%.
func AblationISM(o AblationOpts) Figure {
	f := Figure{
		ID:     "Ablation: ISM",
		Title:  "Intimate Shared Memory (4 MB pages) vs. base 8 KB pages (ECperf)",
		XLabel: "configuration (0=ISM, 1=base pages)",
		YLabel: "Throughput (BBops/s)",
	}
	ismThr, _, _ := ablationPoint(SystemParams{Kind: ECperf, Processors: o.Processors, Seed: o.Seed}, o)
	baseThr, basePt, baseSys := ablationPoint(SystemParams{Kind: ECperf, Processors: o.Processors, Seed: o.Seed, BasePages: true}, o)

	f.Series = append(f.Series, Series{
		Label: "ECperf",
		X:     []float64{0, 1},
		Y:     []float64{ismThr, baseThr},
		Err:   []float64{0, 0},
	})
	var tlbMiss float64
	if d := baseSys.Hier.DTLB(0); d != nil {
		tlbMiss = d.MissRatio()
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("ISM speedup over base pages: %.1f%% (paper: \"more than 10%%\")", 100*(ismThr/baseThr-1)),
		fmt.Sprintf("base-page dTLB miss ratio %.3f; CPI with base pages %.2f", tlbMiss, basePt.CPI))
	return f
}

// AblationGCThreads gives the collector 1..8 threads on an 8-processor
// SPECjbb run: the single-threaded collector's idle tax disappears.
func AblationGCThreads(o AblationOpts) Figure {
	f := Figure{
		ID:     "Ablation: GC threads",
		Title:  "Collector parallelism (SPECjbb, 8 processors)",
		XLabel: "GC threads",
		YLabel: "Throughput (transactions/s)",
	}
	// Collections are sparse; give this study a window long enough to
	// contain several.
	o.MeasureCycles *= 3
	thrS := Series{Label: "throughput"}
	idleS := Series{Label: "GC idle frac ×1e5"}
	for _, threads := range []int{1, 2, 4, 8} {
		thr, pt, _ := ablationPoint(SystemParams{
			Kind: SPECjbb, Processors: o.Processors, Seed: o.Seed, GCThreads: threads,
		}, o)
		thrS.X = append(thrS.X, float64(threads))
		thrS.Y = append(thrS.Y, thr)
		thrS.Err = append(thrS.Err, 0)
		idleS.X = append(idleS.X, float64(threads))
		idleS.Y = append(idleS.Y, 1e5*pt.GCIdleFrac)
		idleS.Err = append(idleS.Err, 0)
	}
	f.Series = append(f.Series, thrS, idleS)
	f.Notes = append(f.Notes, fmt.Sprintf(
		"8-thread collector vs single-threaded: %+.1f%% throughput",
		100*(thrS.Y[len(thrS.Y)-1]/thrS.Y[0]-1)))
	return f
}

// AblationC2CLatency sweeps the dirty-transfer penalty from SMP-like to
// NUMA-like, on both workloads. The paper (§4.3): NUMA systems pay 2-3× the
// memory latency per cache-to-cache transfer, so sharing-heavy workloads
// suffer disproportionately there.
func AblationC2CLatency(o AblationOpts) Figure {
	f := Figure{
		ID:     "Ablation: C2C latency",
		Title:  "Sensitivity to cache-to-cache transfer latency (8 processors)",
		XLabel: "C2C latency (cycles; memory = 75)",
		YLabel: "Throughput relative to E6000 latency",
	}
	lats := []uint64{75, 105, 150, 225}
	for _, kind := range []Kind{ECperf, SPECjbb} {
		s := Series{Label: kind.String()}
		var base float64
		for _, lat := range lats {
			thr, _, _ := ablationPoint(SystemParams{
				Kind: kind, Processors: o.Processors, Seed: o.Seed, C2CLatency: lat,
			}, o)
			if lat == 105 {
				base = thr
			}
			s.X = append(s.X, float64(lat))
			s.Y = append(s.Y, thr)
			s.Err = append(s.Err, 0)
		}
		for i := range s.Y {
			s.Y[i] /= base
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// RelatedWorkKernelTime reproduces the §6 comparison with VolanoMark:
// thread-per-connection chat traffic is kernel-dominated, while the
// middleware benchmarks are not ("the middle tier of the ECperf benchmark
// spends much less time in the kernel than VolanoMark. SPECjbb also has a
// much lower kernel component").
func RelatedWorkKernelTime(o AblationOpts) Figure {
	f := Figure{
		ID:     "Related work: VolanoMark",
		Title:  "Kernel (system) time share by workload (8 processors)",
		XLabel: "workload (0=SPECjbb, 1=ECperf, 2=VolanoMark)",
		YLabel: "System time (% of busy time)",
	}
	s := Series{Label: "system %"}
	for i, kind := range []Kind{SPECjbb, ECperf, VolanoMark} {
		sys := BuildSystem(SystemParams{Kind: kind, Processors: o.Processors, Seed: o.Seed, MemModel: o.MemModel})
		measureBare(sys, o.WarmupCycles, o.MeasureCycles)
		res := sys.Engine.Results()
		pct := 0.0
		if busy := res.Modes.Busy(); busy > 0 {
			pct = 100 * float64(res.Modes.System) / float64(busy)
		}
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, pct)
		s.Err = append(s.Err, 0)
		f.Notes = append(f.Notes, fmt.Sprintf("%v: system %.1f%% of busy time", kind, pct))
	}
	f.Series = append(f.Series, s)
	return f
}

// AblationProtocol runs the bus under MSI, MESI, and MOSI and reports the
// cache-to-cache ratio and bus traffic for SPECjbb.
func AblationProtocol(o AblationOpts) Figure {
	f := Figure{
		ID:     "Ablation: protocol",
		Title:  "Invalidation protocol (SPECjbb, 8 processors)",
		XLabel: "protocol (0=MOSI, 1=MSI, 2=MESI)",
		YLabel: "value",
	}
	protos := []coherence.Protocol{coherence.MOSI, coherence.MSI, coherence.MESI}
	c2c := Series{Label: "C2C ratio (%)"}
	thr := Series{Label: "throughput (k tx/s)"}
	for i, proto := range protos {
		t, pt, sys := ablationPoint(SystemParams{
			Kind: SPECjbb, Processors: o.Processors, Seed: o.Seed, Protocol: proto,
		}, o)
		c2c.X = append(c2c.X, float64(i))
		c2c.Y = append(c2c.Y, 100*pt.C2CRatio)
		c2c.Err = append(c2c.Err, 0)
		thr.X = append(thr.X, float64(i))
		thr.Y = append(thr.Y, t/1000)
		thr.Err = append(thr.Err, 0)
		f.Notes = append(f.Notes, fmt.Sprintf("%v: c2c ratio %.1f%%, writebacks %d, upgrades %d",
			proto, 100*pt.C2CRatio, sys.Hier.Bus().Stats.Writebacks, sys.Hier.Bus().Stats.Upgrades))
	}
	f.Series = append(f.Series, c2c, thr)
	return f
}
