package core

import (
	"fmt"

	"repro/internal/stats"
)

// seriesFromSweep builds one curve of metric fn over the sweep's processor
// counts.
func seriesFromSweep(sw *ScalingSweep, label string, fn func(*ScalingPoint) float64) Series {
	s := Series{Label: label}
	for i := range sw.Cells {
		cell := &sw.Cells[i]
		m := cell.Metric(fn)
		s.X = append(s.X, float64(cell.Processors))
		s.Y = append(s.Y, m.Mean())
		s.Err = append(s.Err, m.StdDev())
	}
	return s
}

// Fig4Throughput reproduces Figure 4: throughput speedup versus processor
// count for both workloads, normalized to each workload's single-processor
// throughput.
func Fig4Throughput(jbb, ec *ScalingSweep) Figure {
	f := Figure{
		ID:     "Fig 4",
		Title:  "Throughput Scaling on a Sun E6000",
		XLabel: "Processors",
		YLabel: "Speedup",
	}
	for _, sw := range []*ScalingSweep{ec, jbb} {
		base := sw.BaseThroughput()
		f.Series = append(f.Series, seriesFromSweep(sw, sw.Kind.String(),
			func(p *ScalingPoint) float64 { return p.Throughput / base }))
	}
	f.Series = append(f.Series, linearSeries(jbb))
	return f
}

// linearSeries is perfect scaling over the sweep's processor counts.
func linearSeries(sw *ScalingSweep) Series {
	s := Series{Label: "Linear"}
	for _, c := range sw.Cells {
		s.X = append(s.X, float64(c.Processors))
		s.Y = append(s.Y, float64(c.Processors))
		s.Err = append(s.Err, 0)
	}
	return s
}

// Fig5ExecutionModes reproduces Figure 5: the mpstat execution-mode
// breakdown (user/system/I-O/idle/GC-idle percentages) versus processors.
func Fig5ExecutionModes(sw *ScalingSweep) Figure {
	f := Figure{
		ID:     "Fig 5",
		Title:  fmt.Sprintf("Execution Mode Breakdown vs. Processors (%s)", sw.Kind),
		XLabel: "Processors",
		YLabel: "Execution time (%)",
	}
	pct := func(fn func(*ScalingPoint) float64) func(*ScalingPoint) float64 {
		return func(p *ScalingPoint) float64 { return 100 * fn(p) }
	}
	f.Series = append(f.Series,
		seriesFromSweep(sw, "User", pct(func(p *ScalingPoint) float64 { return p.UserFrac })),
		seriesFromSweep(sw, "System", pct(func(p *ScalingPoint) float64 { return p.SystemFrac })),
		seriesFromSweep(sw, "I/O", pct(func(p *ScalingPoint) float64 { return p.IOFrac })),
		seriesFromSweep(sw, "Idle", pct(func(p *ScalingPoint) float64 { return p.IdleFrac })),
		seriesFromSweep(sw, "GC Idle", pct(func(p *ScalingPoint) float64 { return p.GCIdleFrac })),
	)
	return f
}

// Fig6CPIBreakdown reproduces Figure 6: CPI decomposed into instruction
// stall, data stall, and other.
func Fig6CPIBreakdown(sw *ScalingSweep) Figure {
	f := Figure{
		ID:     "Fig 6",
		Title:  fmt.Sprintf("CPI Breakdown vs. Processors (%s)", sw.Kind),
		XLabel: "Processors",
		YLabel: "Cycles per instruction",
	}
	f.Series = append(f.Series,
		seriesFromSweep(sw, "Instruction Stall", func(p *ScalingPoint) float64 { return p.IStallCPI }),
		seriesFromSweep(sw, "Data Stall", func(p *ScalingPoint) float64 { return p.DStallCPI }),
		seriesFromSweep(sw, "Other", func(p *ScalingPoint) float64 { return p.OtherCPI }),
		seriesFromSweep(sw, "Total CPI", func(p *ScalingPoint) float64 { return p.CPI }),
	)
	return f
}

// Fig7DataStall reproduces Figure 7: the data-stall decomposition (store
// buffer, RAW, L2 hit, cache-to-cache, memory) as fractions of data-stall
// time.
func Fig7DataStall(sw *ScalingSweep) Figure {
	f := Figure{
		ID:     "Fig 7",
		Title:  fmt.Sprintf("Data Stall Time Breakdown vs. Processors (%s)", sw.Kind),
		XLabel: "Processors",
		YLabel: "Fraction of data stall time",
	}
	f.Series = append(f.Series,
		seriesFromSweep(sw, "Store Buf", func(p *ScalingPoint) float64 { return p.DSStoreBuf }),
		seriesFromSweep(sw, "RAW", func(p *ScalingPoint) float64 { return p.DSRAW }),
		seriesFromSweep(sw, "L2 Hit", func(p *ScalingPoint) float64 { return p.DSL2Hit }),
		seriesFromSweep(sw, "C2C", func(p *ScalingPoint) float64 { return p.DSC2C }),
		seriesFromSweep(sw, "Mem", func(p *ScalingPoint) float64 { return p.DSMem }),
	)
	return f
}

// Fig8C2CRatio reproduces Figure 8: the fraction of L2 misses that hit in
// another processor's cache.
func Fig8C2CRatio(jbb, ec *ScalingSweep) Figure {
	f := Figure{
		ID:     "Fig 8",
		Title:  "Cache-to-Cache Transfer Ratio",
		XLabel: "Processors",
		YLabel: "Cache-to-cache ratio (%)",
	}
	for _, sw := range []*ScalingSweep{ec, jbb} {
		f.Series = append(f.Series, seriesFromSweep(sw, sw.Kind.String(),
			func(p *ScalingPoint) float64 { return 100 * p.C2CRatio }))
	}
	return f
}

// gcSignificance lists the processor counts at which the with-GC and
// no-GC throughputs differ significantly (Welch's t-test at 5%) — the
// paper's §4.5 observation was "statistically significant for ECperf up to
// 6 processors".
func gcSignificance(sw *ScalingSweep) string {
	var sig []int
	for i := range sw.Cells {
		cell := &sw.Cells[i]
		with := cell.Metric(func(p *ScalingPoint) float64 { return p.Throughput })
		without := cell.Metric(func(p *ScalingPoint) float64 { return p.ThroughputNoGC })
		if stats.SignificantlyDifferent(with, without) {
			sig = append(sig, cell.Processors)
		}
	}
	if len(sig) == 0 {
		return fmt.Sprintf("%s: GC effect not statistically significant at any point", sw.Kind)
	}
	return fmt.Sprintf("%s: GC effect statistically significant (5%%) at processors %v", sw.Kind, sig)
}

// Fig9GCScaling reproduces Figure 9: speedup with and without garbage
// collection time.
func Fig9GCScaling(jbb, ec *ScalingSweep) Figure {
	f := Figure{
		ID:     "Fig 9",
		Title:  "Effect of Garbage Collection on Throughput Scaling",
		XLabel: "Processors",
		YLabel: "Speedup",
	}
	for _, sw := range []*ScalingSweep{ec, jbb} {
		base := sw.BaseThroughput()
		baseNoGC := func() float64 {
			for i := range sw.Cells {
				if sw.Cells[i].Processors == 1 {
					return sw.Cells[i].Metric(func(p *ScalingPoint) float64 { return p.ThroughputNoGC }).Mean()
				}
			}
			return base
		}()
		f.Series = append(f.Series,
			seriesFromSweep(sw, sw.Kind.String(),
				func(p *ScalingPoint) float64 { return p.Throughput / base }),
			seriesFromSweep(sw, sw.Kind.String()+" no GC",
				func(p *ScalingPoint) float64 { return p.ThroughputNoGC / baseNoGC }),
		)
		f.Notes = append(f.Notes, gcSignificance(sw))
	}
	f.Series = append(f.Series, linearSeries(jbb))
	return f
}
