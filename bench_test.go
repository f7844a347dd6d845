// Benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation (Figures 4-16). Each benchmark runs the quick preset of the
// same study cmd/figures runs at full fidelity and reports the figure's
// headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in miniature. Absolute values are
// simulator-scale; the shapes are what reproduce the paper (see
// EXPERIMENTS.md for the full-fidelity numbers).
package main

import (
	"testing"

	"repro/internal/core"
)

// quick is the reduced study every benchmark runs.
var quick = core.Study{Quick: true}

// point measures the quick scaling cell for kind on procs processors, first
// seed.
func point(kind core.Kind, procs int) core.CellResult {
	return quick.ScalingCell(kind, procs, quick.SeedList()[0]).Run()
}

func BenchmarkFig04ThroughputScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		jbb := core.RunScalingSweep(core.SPECjbb, quick)
		ec := core.RunScalingSweep(core.ECperf, quick)
		f := core.Fig4Throughput(jbb, ec)
		last := f.Series[0].Y[len(f.Series[0].Y)-1]
		b.ReportMetric(last, "ecperf-speedup@15p")
		last = f.Series[1].Y[len(f.Series[1].Y)-1]
		b.ReportMetric(last, "jbb-speedup@15p")
	}
}

func BenchmarkFig05ExecutionModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := point(core.ECperf, 15)
		b.ReportMetric(100*p.SystemFrac, "ecperf-system-pct@15p")
		b.ReportMetric(100*(p.IdleFrac+p.GCIdleFrac+p.IOFrac), "ecperf-nonbusy-pct@15p")
	}
}

func BenchmarkFig06CPIBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p1 := point(core.ECperf, 1)
		p15 := point(core.ECperf, 15)
		b.ReportMetric(p1.CPI, "ecperf-cpi@1p")
		b.ReportMetric(p15.CPI, "ecperf-cpi@15p")
	}
}

func BenchmarkFig07DataStall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := point(core.ECperf, 15)
		b.ReportMetric(100*p.DSC2C, "c2c-pct-of-dstall@15p")
		b.ReportMetric(100*p.DSMem, "mem-pct-of-dstall@15p")
	}
}

func BenchmarkFig08C2CRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		jbb := point(core.SPECjbb, 15)
		ec := point(core.ECperf, 15)
		b.ReportMetric(100*jbb.C2CRatio, "jbb-c2c-pct@15p")
		b.ReportMetric(100*ec.C2CRatio, "ecperf-c2c-pct@15p")
	}
}

func BenchmarkFig09GCScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := point(core.SPECjbb, 15)
		b.ReportMetric(100*p.GCWallFrac, "jbb-gc-wall-pct@15p")
		b.ReportMetric(p.ThroughputNoGC/p.Throughput, "jbb-nogc-speedup-ratio")
	}
}

func BenchmarkFig10C2CTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// The quick window, stretched to 30M measured cycles.
		c := quick.CommCell(core.SPECjbb)
		c.Measure = 30_000_000
		p := c.Run().Comm
		peak, min := 0.0, 1e18
		for _, v := range p.Timeline {
			if v > peak {
				peak = v
			}
			if v < min {
				min = v
			}
		}
		if peak > 0 {
			b.ReportMetric(min/peak, "min-over-peak-c2c-rate")
		}
		b.ReportMetric(float64(p.GCCount), "collections")
	}
}

func BenchmarkFig11MemoryScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := core.MemScaleStudy.Run(quick)[0]
		for _, s := range f.Series {
			b.ReportMetric(s.Y[len(s.Y)-1]/s.Y[0], s.Label+"-growth-ratio")
		}
	}
}

func BenchmarkFig12ICacheMissRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := core.RunCacheSweeps(quick.SweepOpts())
		f := core.Fig12ICacheMissRate(cs)
		_ = f
		b.ReportMetric(imissAt(cs, "ECperf"), "ecperf-imiss@256KB")
		b.ReportMetric(imissAt(cs, "SPECjbb-25"), "jbb25-imiss@256KB")
	}
}

func BenchmarkFig13DCacheMissRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := core.RunCacheSweeps(quick.SweepOpts())
		b.ReportMetric(dmissAt(cs, "ECperf"), "ecperf-dmiss@1MB")
		b.ReportMetric(dmissAt(cs, "SPECjbb-25"), "jbb25-dmiss@1MB")
		b.ReportMetric(dmissAt(cs, "SPECjbb-1"), "jbb1-dmiss@1MB")
	}
}

func imissAt(cs *core.CacheSweeps, label string) float64 {
	for _, r := range cs.Results {
		if r.Label == label {
			for _, p := range r.ICurve {
				if p.SizeBytes == 256<<10 {
					return p.MissesPer1000
				}
			}
		}
	}
	return -1
}

func dmissAt(cs *core.CacheSweeps, label string) float64 {
	for _, r := range cs.Results {
		if r.Label == label {
			for _, p := range r.DCurve {
				if p.SizeBytes == 1<<20 {
					return p.MissesPer1000
				}
			}
		}
	}
	return -1
}

func BenchmarkFig14C2CDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		jbb := quick.CommCell(core.SPECjbb).Run().Comm
		b.ReportMetric(100*jbb.TopLineShare, "jbb-hottest-line-pct")
		b.ReportMetric(100*jbb.Top01PctShare, "jbb-hottest-0.1pct-lines-pct")
	}
}

func BenchmarkFig15C2CFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		jbb := quick.CommCell(core.SPECjbb).Run().Comm
		ec := quick.CommCell(core.ECperf).Run().Comm
		b.ReportMetric(float64(jbb.LinesTransferring), "jbb-comm-lines")
		b.ReportMetric(float64(ec.LinesTransferring), "ecperf-comm-lines")
	}
}

func BenchmarkFig16SharedCaches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// The quick grouping is {1, 8}: each series reads (private, shared).
		f := core.SharedCacheStudy.Run(quick)[0]
		ec, jbb := f.Series[0].Y, f.Series[1].Y
		b.ReportMetric(ec[1]/ec[0], "ecperf-shared-over-private")
		b.ReportMetric(jbb[1]/jbb[0], "jbb25-shared-over-private")
	}
}

// BenchmarkCoSimulation runs the two-machine co-simulated deployment
// (application server + real database machine) and reports the agreement
// with the queueing-model database.
func BenchmarkCoSimulation(b *testing.B) {
	model := core.Cell{Params: core.SystemParams{Kind: core.ECperf, Processors: 4, Seed: 1}, Warmup: 4_000_000, Measure: 12_000_000}
	cosim := model
	cosim.Params.CoSimDB = true
	for i := 0; i < b.N; i++ {
		m, co := model.Run(), cosim.Run()
		if m.Throughput > 0 {
			b.ReportMetric(co.Throughput/m.Throughput, "cosim-over-model")
		}
		b.ReportMetric(100*co.DBBusyFrac, "db-busy-pct")
	}
}
