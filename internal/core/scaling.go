package core

import (
	"fmt"

	"repro/internal/stats"
)

// ScalingPoint is everything Figures 4–9 need from one run.
type ScalingPoint struct {
	// Throughput in business operations per simulated second.
	Throughput float64
	// ThroughputNoGC factors GC wall time out of the window (Figure 9).
	ThroughputNoGC float64

	// Execution-mode fractions over the processor set (Figure 5).
	UserFrac, SystemFrac, IOFrac, IdleFrac, GCIdleFrac float64

	// CPI decomposition (Figure 6).
	CPI, OtherCPI, IStallCPI, DStallCPI float64

	// Data-stall decomposition as fractions of data-stall cycles (Figure 7).
	DSStoreBuf, DSRAW, DSL2Hit, DSC2C, DSMem float64

	// C2CRatio is the fraction of L2 data misses served by another cache
	// (Figure 8).
	C2CRatio float64

	// GCWallFrac is GC stop-the-world time over the window; GCCount the
	// number of collections.
	GCWallFrac float64
	GCCount    uint64

	// InstrPerOp is the dynamic path length per business operation (§4.4).
	InstrPerOp float64

	// Debug is the calibration's bus-level diagnostic line (BusDiagnostic
	// cells only).
	Debug string
}

// busDiagnostic is the calibration line of a finished BusDiagnostic cell:
// the miss mix per 1000 instructions, with misses by address class, and the
// lock waits.
func busDiagnostic(sys *System, measure uint64) string {
	r := sys.Engine.Results()
	bs := sys.Hier.Bus().Stats
	instr := float64(r.CPU.Instructions)
	if instr == 0 {
		return ""
	}
	d := fmt.Sprintf("bus/1k[gets=%.2f getm=%.2f upg=%.2f c2c=%.2f mem=%.2f dmiss=%.2f fmiss=%.2f] lockwait=%.2f",
		1000*float64(bs.GetS)/instr, 1000*float64(bs.GetM)/instr,
		1000*float64(bs.Upgrades)/instr, 1000*float64(bs.C2CTransfers)/instr,
		1000*float64(bs.MemTransfers)/instr,
		1000*float64(sys.Hier.DataMisses)/instr, 1000*float64(sys.Hier.FetchMisses)/instr,
		float64(r.LockWaitCycles)/float64(measure)/float64(sys.Params.Processors))
	d += fmt.Sprintf(" blk=%d/%d wait[mon=%.1fM spin=%.1fM sem=%.1fM]",
		r.LockBlocks, r.LockAcquires,
		float64(r.WaitMonitor)/1e6, float64(r.WaitSpin)/1e6, float64(r.WaitSem)/1e6)
	if sys.DB != nil {
		d += fmt.Sprintf(" dbutil=%.2f suputil=%.2f hit=%.2f", sys.DB.Utilization(), sys.Supplier.Utilization(), sys.EC.Cache().HitRatio())
	}
	mc := sys.Hier.Bus().MissClass
	d += fmt.Sprintf(" memclass[code=%.2f kern=%.2f eden=%.2f surv=%.2f old=%.2f perm=%.2f oth=%.2f]",
		1000*float64(mc[0])/instr, 1000*float64(mc[1])/instr, 1000*float64(mc[2])/instr,
		1000*float64(mc[3])/instr, 1000*float64(mc[4])/instr, 1000*float64(mc[5])/instr,
		1000*float64(mc[6])/instr)
	return d
}

// regionClassifier maps addresses to coarse region classes for the
// calibration diagnostics.
func regionClassifier(sys *System) func(a uint64) int {
	return func(a uint64) int {
		var reg string
		if r, ok := sys.Space.FindRegion(a); ok {
			reg = r.Name
		}
		switch {
		case len(reg) > 5 && reg[:5] == "code:":
			if reg == "code:kernel" || reg == "code:kernel-net" {
				return 1
			}
			return 0
		case reg == "heap:eden":
			return 2
		case reg == "heap:surv0" || reg == "heap:surv1":
			return 3
		case reg == "heap:old":
			return 4
		case reg == "heap:perm":
			return 5
		default:
			return 6
		}
	}
}

// summarize reduces cell's finished measurement window to what the studies
// read. The engine must have been reset at the warm-up boundary and run
// through the window.
func summarize(sys *System, cell Cell) CellResult {
	res := sys.Engine.Results()

	window := float64(cell.Measure)
	seconds := window / CyclesPerSecond
	p := ScalingPoint{
		Throughput: float64(res.BusinessOps) / seconds,
		GCCount:    res.GCCount,
	}
	if res.GCWall < cell.Measure {
		p.ThroughputNoGC = float64(res.BusinessOps) / ((window - float64(res.GCWall)) / CyclesPerSecond)
	} else {
		p.ThroughputNoGC = p.Throughput
	}
	p.GCWallFrac = float64(res.GCWall) / window

	if total := float64(res.Modes.Total()); total > 0 {
		p.UserFrac = float64(res.Modes.User) / total
		p.SystemFrac = float64(res.Modes.System) / total
		p.IOFrac = float64(res.Modes.IOWait) / total
		p.IdleFrac = float64(res.Modes.Idle) / total
		p.GCIdleFrac = float64(res.Modes.GCIdle) / total
	}

	c := res.CPU
	if c.Instructions > 0 {
		instr := float64(c.Instructions)
		p.CPI = float64(c.Total()) / instr
		p.OtherCPI = float64(c.BaseCycles) / instr
		p.IStallCPI = float64(c.IStallCycles) / instr
		p.DStallCPI = float64(c.DStall()) / instr
		if ds := float64(c.DStall()); ds > 0 {
			p.DSStoreBuf = float64(c.DStallStoreBuf) / ds
			p.DSRAW = float64(c.DStallRAW) / ds
			p.DSL2Hit = float64(c.DStallL2Hit) / ds
			p.DSC2C = float64(c.DStallC2C) / ds
			p.DSMem = float64(c.DStallMem) / ds
		}
	}
	if res.BusinessOps > 0 {
		p.InstrPerOp = float64(c.Instructions) / float64(res.BusinessOps)
	}
	bs := sys.Hier.Bus().Stats
	p.C2CRatio = bs.C2CRatio()

	r := CellResult{
		Cell:          cell,
		ScalingPoint:  p,
		dataMPKI:      sys.Hier.DataMissesPer1000(c.Instructions),
		dtlbMissRatio: sys.Hier.DTLBMissRatio(),
		writebacks:    bs.Writebacks,
		upgrades:      bs.Upgrades,
	}
	if busy := res.Modes.Busy(); busy > 0 {
		r.systemBusyPct = 100 * float64(res.Modes.System) / float64(busy)
	}
	return r
}

// SweepCell aggregates the per-seed results of one (workload, processors)
// configuration.
type SweepCell struct {
	Processors int
	Points     []CellResult
}

// Metric summarizes fn over the cell's seeds.
func (c *SweepCell) Metric(fn func(*ScalingPoint) float64) *stats.Summary {
	var s stats.Summary
	for i := range c.Points {
		s.Add(fn(&c.Points[i].ScalingPoint))
	}
	return &s
}

// ScalingSweep holds the processor-count sweep for one workload — the
// shared substrate of Figures 4, 5, 6, 7, 8, and 9.
type ScalingSweep struct {
	Kind  Kind
	Cells []SweepCell
}

// scalingCells declares kind's sweep: every (processor count × seed) cell.
func scalingCells(st Study, kind Kind) []Cell {
	var cells []Cell
	for _, procs := range st.Procs() {
		for _, seed := range st.SeedList() {
			cells = append(cells, st.ScalingCell(kind, procs, seed))
		}
	}
	return cells
}

// newScalingSweep groups kind's finished scalingCells by processor count.
func newScalingSweep(st Study, kind Kind, rs []CellResult) *ScalingSweep {
	ns := len(st.SeedList())
	sw := &ScalingSweep{Kind: kind}
	for pi, procs := range st.Procs() {
		sw.Cells = append(sw.Cells, SweepCell{Processors: procs, Points: rs[pi*ns : (pi+1)*ns]})
	}
	return sw
}

// RunScalingSweep measures kind's sweep on a private scheduler sized to the
// host.
func RunScalingSweep(kind Kind, st Study) *ScalingSweep {
	rs := runPrivate(func(s *Scheduler) []CellResult { return runCells(s, scalingCells(st, kind)) })
	return newScalingSweep(st, kind, rs)
}

// scalingStudy is Figures 4–9: both workloads' sweeps, SPECjbb's cells
// first.
var scalingStudy = &Experiment{
	Name: "scaling sweeps",
	Figs: []int{4, 5, 6, 7, 8, 9},
	cells: func(st Study) []Cell {
		return append(scalingCells(st, SPECjbb), scalingCells(st, ECperf)...)
	},
	render: func(st Study, rs []CellResult) []Figure {
		n := len(rs) / 2
		jbb, ec := newScalingSweep(st, SPECjbb, rs[:n]), newScalingSweep(st, ECperf, rs[n:])
		return []Figure{
			Fig4Throughput(jbb, ec),
			Fig5ExecutionModes(ec), Fig5ExecutionModes(jbb),
			Fig6CPIBreakdown(ec), Fig6CPIBreakdown(jbb),
			Fig7DataStall(ec), Fig7DataStall(jbb),
			Fig8C2CRatio(jbb, ec),
			Fig9GCScaling(jbb, ec),
		}
	},
}

// BaseThroughput returns mean single-processor throughput (speedup
// denominator). It requires the sweep to include processors=1.
func (sw *ScalingSweep) BaseThroughput() float64 {
	for i := range sw.Cells {
		if sw.Cells[i].Processors == 1 {
			return sw.Cells[i].Metric(func(p *ScalingPoint) float64 { return p.Throughput }).Mean()
		}
	}
	panic("core: scaling sweep lacks a 1-processor cell")
}
