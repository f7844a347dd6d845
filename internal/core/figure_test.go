package core

import (
	"strings"
	"testing"
)

// fabricate builds a ScalingSweep from synthetic points so figure drivers
// can be tested without simulation.
func fabricate(kind Kind, procs []int, seeds int) *ScalingSweep {
	sw := &ScalingSweep{Kind: kind}
	for _, p := range procs {
		cell := SweepCell{Processors: p}
		for s := 0; s < seeds; s++ {
			pt := ScalingPoint{
				Throughput:     1000 * float64(p) * (1 - 0.02*float64(p)) * (1 + 0.001*float64(s)),
				ThroughputNoGC: 1050 * float64(p) * (1 - 0.02*float64(p)) * (1 + 0.001*float64(s)),
				UserFrac:       0.8,
				SystemFrac:     0.1,
				IdleFrac:       0.1,
				CPI:            1.5 + 0.01*float64(p),
				OtherCPI:       1.0,
				IStallCPI:      0.3,
				DStallCPI:      0.2 + 0.01*float64(p),
				DSL2Hit:        0.5,
				DSC2C:          0.3,
				DSMem:          0.2,
				C2CRatio:       0.1 + 0.01*float64(p),
				GCWallFrac:     0.05,
				InstrPerOp:     10000,
			}
			cell.Points = append(cell.Points, CellResult{ScalingPoint: pt})
		}
		sw.Cells = append(sw.Cells, cell)
	}
	return sw
}

func TestFig4FigureStructure(t *testing.T) {
	procs := []int{1, 4, 8}
	jbb := fabricate(SPECjbb, procs, 3)
	ec := fabricate(ECperf, procs, 3)
	f := Fig4Throughput(jbb, ec)
	if len(f.Series) != 3 { // ECperf, SPECjbb, Linear
		t.Fatalf("series = %d", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) != len(procs) || len(s.Y) != len(procs) || len(s.Err) != len(procs) {
			t.Fatalf("series %s has ragged data", s.Label)
		}
	}
	// Speedups are normalized: 1 at one processor.
	for _, s := range f.Series[:2] {
		if s.Y[0] < 0.99 || s.Y[0] > 1.01 {
			t.Fatalf("%s speedup at 1P = %v, want 1", s.Label, s.Y[0])
		}
	}
}

func TestFig5Through9Structure(t *testing.T) {
	procs := []int{1, 8}
	jbb := fabricate(SPECjbb, procs, 2)
	ec := fabricate(ECperf, procs, 2)

	if f := Fig5ExecutionModes(ec); len(f.Series) != 5 {
		t.Fatalf("Fig5 series = %d", len(f.Series))
	}
	if f := Fig6CPIBreakdown(jbb); len(f.Series) != 4 {
		t.Fatalf("Fig6 series = %d", len(f.Series))
	}
	if f := Fig7DataStall(jbb); len(f.Series) != 5 {
		t.Fatalf("Fig7 series = %d", len(f.Series))
	}
	if f := Fig8C2CRatio(jbb, ec); len(f.Series) != 2 {
		t.Fatalf("Fig8 series = %d", len(f.Series))
	}
	f := Fig9GCScaling(jbb, ec)
	if len(f.Series) != 5 { // 2 workloads x (with, without) + linear
		t.Fatalf("Fig9 series = %d", len(f.Series))
	}
	// Significance notes are attached for both workloads.
	notes := strings.Join(f.Notes, "\n")
	if !strings.Contains(notes, "SPECjbb") || !strings.Contains(notes, "ECperf") {
		t.Fatalf("Fig9 notes incomplete: %v", f.Notes)
	}
}

func TestBaseThroughputPanicsWithoutOneProc(t *testing.T) {
	sw := fabricate(SPECjbb, []int{2, 4}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for sweep without 1-processor cell")
		}
	}()
	sw.BaseThroughput()
}

func TestSweepCellMetric(t *testing.T) {
	sw := fabricate(SPECjbb, []int{4}, 3)
	m := sw.Cells[0].Metric(func(p *ScalingPoint) float64 { return p.CPI })
	if m.N() != 3 {
		t.Fatalf("metric samples = %d", m.N())
	}
	if m.Mean() < 1.5 || m.Mean() > 1.6 {
		t.Fatalf("metric mean = %v", m.Mean())
	}
}
