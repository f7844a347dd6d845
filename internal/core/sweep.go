package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/ifetch"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/osmodel"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// feeder expands recorded operations into reference streams for the
// one-pass multi-configuration cache sweeper — the Simics+Sumo flow behind
// Figures 12 and 13. It is purely functional: no timing, one processor.
type feeder struct {
	sweepI *cache.Sweep
	sweepD *cache.Sweep
	gen    *ifetch.Gen
	instr  uint64

	// Optional observability. The sweeper has no timing model, so the
	// instruction count doubles as the clock (~1 CPI on the uniprocessor)
	// and the profiler receives instruction counts as CatBase "cycles".
	tracer *obs.Tracer
	prof   *obs.Profiler
	// attrc, when non-nil, attributes data references per cache line. The
	// sweeper has no coherence protocol, so reads and writes are recorded
	// directly (reference-level, not miss-level) — the sharing classifier
	// still applies, everything being single-node read-only or private.
	attrc *attr.Collector
}

func newFeeder(layout *ifetch.CodeLayout, rng *simrand.Rand, icfgs, dcfgs []cache.Config) *feeder {
	return &feeder{
		sweepI: cache.NewSweep(icfgs),
		sweepD: cache.NewSweep(dcfgs),
		gen:    ifetch.NewGen(layout, rng),
	}
}

func (f *feeder) feedItems(items []trace.Item) {
	for i := range items {
		it := &items[i]
		switch it.Kind {
		case trace.KindInstr:
			f.instr += uint64(it.N)
			f.prof.AddCycles(int(it.Comp), obs.CatBase, uint64(it.N))
			for left := ifetch.BlocksFor(uint64(it.N)); left > 0; {
				addr, n := f.gen.NextRun(it.Comp, left)
				f.sweepI.FetchRun(addr, n)
				left -= n
			}
		case trace.KindRead:
			f.sweepD.AccessRange(it.Addr, uint64(it.N), mem.Read)
			f.attrRange(it.Addr, uint64(it.N), false)
		case trace.KindWrite:
			f.sweepD.AccessRange(it.Addr, uint64(it.N), mem.Write)
			f.attrRange(it.Addr, uint64(it.N), true)
		case trace.KindGCPause:
			if it.GC != nil {
				if f.tracer.Admit(obs.CompJVM) {
					f.tracer.Instant(obs.CompJVM, "gc", 0, f.instr, obs.U64("live_bytes", it.GC.LiveBytes))
				}
				f.feedItems(it.GC.Items)
			}
		}
	}
}

// attrRange records every 64 B line an access touches with the collector.
func (f *feeder) attrRange(addr mem.Addr, n uint64, write bool) {
	if f.attrc == nil || n == 0 {
		return
	}
	const line = 64
	for ba := uint64(addr) &^ (line - 1); ba < uint64(addr)+n; ba += line {
		if write {
			f.attrc.RecordGetM(ba, 0, false, f.instr)
		} else {
			f.attrc.RecordGetS(ba, 0, false, f.instr)
		}
	}
}

func (f *feeder) reset() {
	f.sweepI.ResetStats()
	f.sweepD.ResetStats()
	f.instr = 0
}

func (f *feeder) curves() (icurve, dcurve []cache.Point) {
	f.sweepI.CountInstructions(f.instr)
	f.sweepD.CountInstructions(f.instr)
	return f.sweepI.MissCurve(), f.sweepD.MissCurve()
}

// uniPlayer plays a workload's functional uniprocessor thread set — one
// thread per SPECjbb warehouse, or ECperf's six-thread pool — round-robin
// at one cycle per instruction, like a time-shared CPU. The cache sweeps
// (Figures 12/13) and the memory-scaling study (Figure 11) both run on it.
type uniPlayer struct {
	sources []osmodel.OpSource
	now     uint64
}

func newUniPlayer(sys *System) *uniPlayer {
	p := &uniPlayer{}
	switch sys.Params.Kind {
	case SPECjbb:
		for i := 0; i < sys.Params.Scale; i++ {
			p.sources = append(p.sources, sys.JBB.Source(i))
		}
	case ECperf:
		// A uniprocessor app server still runs a small thread pool.
		for i := 0; i < 6; i++ {
			p.sources = append(p.sources, sys.EC.Source(i))
		}
	}
	return p
}

// play runs rounds rounds, each giving every thread one operation in
// thread order, and hands each operation to fn.
func (p *uniPlayer) play(rounds int, fn func(tid int, op *trace.Op)) {
	for range rounds {
		for tid, src := range p.sources {
			op := src.NextOp(tid, p.now)
			fn(tid, op)
			p.now += op.Instructions()
		}
	}
}

// SweepOpts size the uniprocessor cache-sweep experiment.
type SweepOpts struct {
	// WarmupOps and MeasureOps are per-thread operation counts.
	WarmupOps, MeasureOps int
	Seed                  uint64

	// Observe, when non-nil, supplies one observer per workload
	// configuration (configurations run concurrently, so each needs its
	// own). Trace timestamps are instruction counts — the sweeper has no
	// timing model.
	Observe func(label string) *obs.Observer
}

// DefaultSweepOpts is the full-fidelity configuration.
func DefaultSweepOpts() SweepOpts {
	return SweepOpts{WarmupOps: 120, MeasureOps: 600, Seed: 20030208}
}

// QuickSweepOpts is the reduced test/bench configuration.
func QuickSweepOpts() SweepOpts {
	return SweepOpts{WarmupOps: 30, MeasureOps: 120, Seed: 20030208}
}

// SweepResult is one workload configuration's miss curves.
type SweepResult struct {
	Label  string
	ICurve []cache.Point
	DCurve []cache.Point
	// Instructions fed through the sweeper in the measured rounds.
	Instructions uint64
}

// runUniSweep builds the workload on a uniprocessor machine and streams
// its operations (round-robin over threads, like a time-shared CPU)
// through sweeps over the given instruction- and data-cache geometries.
func runUniSweep(kind Kind, scale int, label string, o SweepOpts, icfgs, dcfgs []cache.Config) SweepResult {
	sys := BuildSystem(SystemParams{Kind: kind, Processors: 1, Scale: scale, Seed: o.Seed})
	f := newFeeder(sys.Layout, simrand.New(o.Seed).Derive(77), icfgs, dcfgs)

	var ob *obs.Observer
	if o.Observe != nil {
		ob = o.Observe(label)
	}
	if ob != nil {
		f.tracer, f.prof = ob.Tracer, ob.Profiler
		if ob.Attr != nil {
			f.attrc = ob.Attr
			attachAttr(sys, ob.Attr)
		}
		if f.tracer != nil {
			f.tracer.NameProcess(f.tracer.Pid, label)
		}
		if f.prof != nil && f.prof.Scope == "" {
			f.prof.Scope = label
		}
		if ob.Registry != nil {
			ob.Registry.Counter("sweep.instructions", func() uint64 { return f.instr })
			if f.prof != nil {
				for _, comp := range sys.Layout.Components() {
					name := comp.Name
					ob.Registry.Counter("sweep.instr."+name, func() uint64 {
						return f.prof.ComponentTotals()[name]
					})
				}
			}
		}
	}

	player := newUniPlayer(sys)
	feed := func(tid int, op *trace.Op) {
		before := f.instr
		f.feedItems(op.Items)
		if op.Business && f.tracer.Admit(obs.CompWorkload) {
			f.tracer.Span(obs.CompWorkload, op.Tag, tid, before, f.instr)
		}
	}
	f.prof.SetPhase("warmup")
	player.play(o.WarmupOps, feed)
	f.reset()
	f.prof.Reset()
	f.attrc.Reset()
	f.prof.SetPhase("measure")
	player.play(o.MeasureOps, feed)
	if f.attrc != nil {
		f.attrc.CloseEpoch(sys.Heap.SiteResolver(), "final")
	}
	ic, dc := f.curves()
	return SweepResult{Label: label, ICurve: ic, DCurve: dc, Instructions: f.instr}
}

// CacheSweeps holds the four workload configurations of Figures 12/13.
type CacheSweeps struct {
	Results []SweepResult // ECperf, SPECjbb-25, SPECjbb-10, SPECjbb-1
}

// sweepSpecs are the paper's four uniprocessor workload configurations.
type sweepSpec struct {
	kind  Kind
	scale int
	label string
}

func sweepSpecs() []sweepSpec {
	return []sweepSpec{
		{ECperf, 10, "ECperf"},
		{SPECjbb, 25, "SPECjbb-25"},
		{SPECjbb, 10, "SPECjbb-10"},
		{SPECjbb, 1, "SPECjbb-1"},
	}
}

// ScheduleCacheSweeps submits the four uniprocessor configurations as
// cells, each sweeping the chosen dimension (fixedBytes is the cache size
// for the non-size modes) on its I and D sides; the results are filled by
// sched.Wait, in the fixed configuration order.
func ScheduleCacheSweeps(sched *Scheduler, o SweepOpts, mode GeometryMode, fixedBytes int) *CacheSweeps {
	ladder := cache.SizeSweepConfigs
	switch mode {
	case SweepAssoc:
		ladder = func(name string) []cache.Config { return cache.AssocSweepConfigs(name, fixedBytes) }
	case SweepBlock:
		ladder = func(name string) []cache.Config { return cache.BlockSweepConfigs(name, fixedBytes) }
	}
	specs := sweepSpecs()
	results := grid(sched, len(specs), func(i int) SweepResult {
		sp := specs[i]
		r := runUniSweep(sp.kind, sp.scale, sp.label, o, ladder("I"), ladder("D"))
		sched.Progress.AddCycles(r.Instructions)
		return r
	})
	return &CacheSweeps{Results: results}
}

// RunCacheSweeps runs the paper's four uniprocessor configurations on a
// private scheduler sized to the host.
func RunCacheSweeps(o SweepOpts) *CacheSweeps {
	return runPrivate(func(s *Scheduler) *CacheSweeps { return ScheduleCacheSweeps(s, o, SweepSize, 0) })
}

func curveFigure(id, title string, cs *CacheSweeps, pick func(SweepResult) []cache.Point) Figure {
	f := Figure{
		ID:     id,
		Title:  title,
		XLabel: "Cache Size (KB)",
		YLabel: "Misses / 1000 instructions",
		LogX:   true,
		LogY:   true,
	}
	for _, r := range cs.Results {
		s := Series{Label: r.Label}
		for _, p := range pick(r) {
			s.X = append(s.X, float64(p.SizeBytes)/1024)
			s.Y = append(s.Y, p.MissesPer1000)
			s.Err = append(s.Err, 0)
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig12ICacheMissRate reproduces Figure 12: instruction-cache miss rate
// versus cache size (64 KB–16 MB, 4-way, 64 B blocks) on a uniprocessor.
func Fig12ICacheMissRate(cs *CacheSweeps) Figure {
	f := curveFigure("Fig 12", "Instruction Cache Miss Rate", cs,
		func(r SweepResult) []cache.Point { return r.ICurve })
	f.Notes = append(f.Notes, fmt.Sprintf(
		"ECperf I-miss at 256KB = %.3f/1000 vs SPECjbb-25 = %.3f/1000",
		missAt(cs, "ECperf", 256<<10, true), missAt(cs, "SPECjbb-25", 256<<10, true)))
	return f
}

// Fig13DCacheMissRate reproduces Figure 13: data-cache miss rate versus
// cache size, with SPECjbb at 1, 10, and 25 warehouses.
func Fig13DCacheMissRate(cs *CacheSweeps) Figure {
	f := curveFigure("Fig 13", "Data Cache Miss Rate", cs,
		func(r SweepResult) []cache.Point { return r.DCurve })
	f.Notes = append(f.Notes, fmt.Sprintf(
		"D-miss at 1MB: ECperf=%.3f, SPECjbb-1=%.3f, SPECjbb-10=%.3f, SPECjbb-25=%.3f (/1000 instr)",
		missAt(cs, "ECperf", 1<<20, false), missAt(cs, "SPECjbb-1", 1<<20, false),
		missAt(cs, "SPECjbb-10", 1<<20, false), missAt(cs, "SPECjbb-25", 1<<20, false)))
	return f
}

// GeometryMode selects the swept cache dimension.
type GeometryMode int

const (
	// SweepSize: 64 KB-16 MB at 4-way/64 B (the paper's Figures 12/13).
	SweepSize GeometryMode = iota
	// SweepAssoc: 1-16 ways at a fixed size (a dimension the paper's
	// simulator supported, §3.3 — supplemental here).
	SweepAssoc
	// SweepBlock: 16-256 B blocks at a fixed size (ditto).
	SweepBlock
)

// missAt reads one point off a sweep curve (for notes and tests).
func missAt(cs *CacheSweeps, label string, size int, instruction bool) float64 {
	for _, r := range cs.Results {
		if r.Label != label {
			continue
		}
		curve := r.DCurve
		if instruction {
			curve = r.ICurve
		}
		for _, p := range curve {
			if p.SizeBytes == size {
				return p.MissesPer1000
			}
		}
	}
	return -1
}
