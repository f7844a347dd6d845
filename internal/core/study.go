package core

import (
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/stats"
)

// StudySeed is the seed of every single-seed study: the base of the
// multi-seed studies' seed list.
const StudySeed = stats.SeedBase

// StudyProcessors is the processor-set size of the communication profile
// (Figures 10/14/15), the ablation studies and the co-simulation.
const StudyProcessors = 8

// Study is one driver invocation's experiment settings, built once from its
// flags: the fidelity that sizes every study from the preset table, the
// seed count of the multi-seed studies, and the memory timing model of every
// timing cell.
type Study struct {
	// Quick selects the reduced preset: fewer points, one seed, shorter
	// windows. The shapes survive; the error bars do not.
	Quick bool
	// Seeds overrides the preset's seed count for the scaling sweep and the
	// shared-cache study (0: the preset's).
	Seeds int
	// MemModel is the memory timing model of every timing cell.
	MemModel memsys.MemModel
}

// window is a cell's warm-up and measurement window in simulated cycles.
type window struct{ warmup, measure uint64 }

// preset sizes every study at one fidelity.
type preset struct {
	// Figures 4–9: processor counts, seeds (also Figure 16's), window.
	procs   []int
	seeds   int
	scaling window
	// Figure 16: processors per shared L2, window.
	grouping []int
	shared   window
	// Figures 10/14/15.
	comm window
	// Figure 11: scale factors, and the op budget in rounds of the
	// uniprocessor thread set per scale unit.
	scales          []int
	opsPerScaleUnit int
	// Figures 12/13.
	sweep SweepOpts
	// The ablations, the kernel-time comparison and the co-simulation (the
	// GC-threads study measures three windows).
	ablation window
}

// presets is the study table keyed by fidelity (Study.Quick), one line per
// study.
var presets = map[bool]*preset{
	false: {
		procs: []int{1, 2, 4, 6, 8, 10, 12, 14, 15}, seeds: 3, scaling: window{12_000_000, 50_000_000},
		grouping: []int{1, 2, 4, 8}, shared: window{12_000_000, 40_000_000},
		comm:   window{12_000_000, 60_000_000},
		scales: []int{1, 2, 4, 6, 8, 10, 15, 20, 25, 30, 35, 40}, opsPerScaleUnit: 1200,
		sweep:    SweepOpts{WarmupOps: 120, MeasureOps: 600, Seed: StudySeed},
		ablation: window{10_000_000, 40_000_000},
	},
	true: {
		procs: []int{1, 4, 8, 15}, seeds: 1, scaling: window{4_000_000, 16_000_000},
		grouping: []int{1, 8}, shared: window{4_000_000, 16_000_000},
		comm:   window{4_000_000, 20_000_000},
		scales: []int{1, 4, 8, 16, 32, 40}, opsPerScaleUnit: 500,
		sweep:    SweepOpts{WarmupOps: 30, MeasureOps: 120, Seed: StudySeed},
		ablation: window{4_000_000, 16_000_000},
	},
}

func (st Study) preset() *preset { return presets[st.Quick] }

// Procs are the scaling sweep's processor counts.
func (st Study) Procs() []int { return st.preset().procs }

// SeedList is the seed list of the scaling sweep and the shared-cache study.
func (st Study) SeedList() []uint64 {
	if st.Seeds > 0 {
		return stats.Seeds(st.Seeds)
	}
	return stats.Seeds(st.preset().seeds)
}

// cell declares a timing cell over w. Every timing cell is declared here, so
// every one runs under the study's memory model.
func (st Study) cell(w window, p SystemParams) Cell {
	p.MemModel = st.MemModel
	return Cell{Params: p, Warmup: w.warmup, Measure: w.measure}
}

// ScalingCell is the scaling sweep's cell for kind on procs processors.
func (st Study) ScalingCell(kind Kind, procs int, seed uint64) Cell {
	return st.cell(st.preset().scaling, SystemParams{Kind: kind, Processors: procs, Seed: seed})
}

// AblationCell is the ablation studies' baseline cell for kind: StudyProcessors
// processors at StudySeed. A study varies one parameter of it.
func (st Study) AblationCell(kind Kind) Cell {
	return st.cell(st.preset().ablation, SystemParams{Kind: kind, Processors: StudyProcessors, Seed: StudySeed})
}

// Attachment is an optional collector a cell carries through its run.
type Attachment int

const (
	// CommCollector attaches the exact attribution collector with the
	// Figure 10 timeline bin; the result carries the communication profile.
	CommCollector Attachment = iota + 1
	// BusDiagnostic counts bus misses by address region; the result's
	// Debug holds the calibration diagnostic line.
	BusDiagnostic
)

// Cell is one measured run: a machine, its warm-up and measurement window,
// and an optional attachment. Every timing study is a list of cells.
type Cell struct {
	Params          SystemParams
	Warmup, Measure uint64
	Attach          Attachment
}

// CellResult is what the studies read from one finished cell: the figure
// metrics, plus the study-specific reads taken before the machine is dropped.
type CellResult struct {
	Cell Cell // the cell's declaration
	ScalingPoint
	// Comm is the communication profile (CommCollector only).
	Comm *CommProfile
	// DBBusyFrac is the co-simulated database machine's busy fraction
	// (CoSimDB cells only).
	DBBusyFrac float64

	dataMPKI      float64 // L2 data misses per 1000 instructions (Figure 16)
	dtlbMissRatio float64 // the machine's data-TLB miss ratio (ISM; 0 without base pages)
	systemBusyPct float64 // system time, % of busy time (kernel time)
	writebacks    uint64  // bus writebacks (protocol)
	upgrades      uint64  // bus upgrades (protocol)
	dbQueries     uint64  // queries the co-simulated database machine served
}

// Run builds the cell's machine, runs it through the warm-up and the
// measurement window, and summarizes it. A co-simulated deployment
// (Params.CoSimDB) runs on the cluster coordinator's loop; every other cell
// runs through Run.Measure with each phase as one slice. Slicing is not
// free of effects: an idle processor re-checks the ready queue at every
// slice boundary, which can move a steal earlier, so cells keep the
// one-slice-per-phase schedule their figures were calibrated on.
func (c Cell) Run() CellResult {
	if c.Params.CoSimDB {
		return c.runCoSim()
	}
	sys := BuildSystem(c.Params)
	r := &Run{Sys: sys, slice: c.Warmup + c.Measure}
	if c.Attach == CommCollector { // the warm-up reset restarts the collector
		r.Observer = &obs.Observer{Attr: attr.NewCollector(attr.Options{Exact: true, TimelineBin: commTimelineBin})}
	}
	if c.Attach == BusDiagnostic {
		sys.Hier.Bus().ClassifyAddr = regionClassifier(sys)
	}
	// Without a checkpoint plan or a replay, Measure cannot fail.
	_ = r.Measure(c.Warmup, c.Measure, nil)
	res := summarize(sys, c)
	if c.Attach == CommCollector {
		res.Comm = newCommProfile(r.Observer.Attr, c, res.GCCount)
	}
	if c.Attach == BusDiagnostic {
		res.Debug = busDiagnostic(sys, c.Measure)
	}
	return res
}

// runCells submits cells to sched through grid: slot i holds cell i's result
// once sched has drained.
func runCells(sched *Scheduler, cells []Cell) []CellResult {
	return grid(sched, len(cells), func(i int) CellResult {
		r := cells[i].Run()
		sched.Progress.AddCycles(cells[i].Warmup + cells[i].Measure)
		return r
	})
}

// Experiment is one row of the study table: a study described as data. A
// timing study declares its cells, which run through Cell.Run on the shared
// grid, and renders their results; a timing-free study (a functional
// uniprocessor run, which times nothing, so the memory model does not
// apply) declares no cells and submits its own runs.
type Experiment struct {
	// Name is the study's -which name in cmd/ablations, or what cmd/figures
	// announces when it runs the study.
	Name string
	// Figs are the paper's figures the study renders (nil for an ablation).
	Figs []int

	cells  func(Study) []Cell
	render func(Study, []CellResult) []Figure
	// functional schedules a timing-free study's runs.
	functional func(*Scheduler, Study) func() []Figure
}

// Schedule submits the study's runs to sched and returns its renderer,
// which returns the study's figures in order once sched has drained.
func (e *Experiment) Schedule(sched *Scheduler, st Study) func() []Figure {
	if e.cells == nil {
		return e.functional(sched, st)
	}
	rs := runCells(sched, e.cells(st))
	return func() []Figure { return e.render(st, rs) }
}

// Run runs the study on a private scheduler sized to the host and returns
// its figures.
func (e *Experiment) Run(st Study) []Figure {
	return runPrivate(func(s *Scheduler) func() []Figure { return e.Schedule(s, st) })()
}

// FigureStudies are cmd/figures' studies, in render order.
var FigureStudies = []*Experiment{scalingStudy, commStudy, MemScaleStudy, cacheSweepStudy, SharedCacheStudy}

// Ablations are cmd/ablations' studies, in render order.
var Ablations = []*Experiment{ismStudy, gcThreadsStudy, c2cLatencyStudy, protocolStudy, KernelTimeStudy, CoSimStudy}

// vary declares one cell per value: base with set applied.
func vary[T any](base Cell, vals []T, set func(*Cell, T)) []Cell {
	cells := make([]Cell, len(vals))
	for i, v := range vals {
		cells[i] = base
		set(&cells[i], v)
	}
	return cells
}
