package osmodel

import (
	"repro/internal/ifetch"
	"repro/internal/mem"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// DaemonConfig parameterizes the background OS activity that runs on every
// processor of the machine, inside or outside the workload's processor set.
// The paper observes (§4.3) that snoop copybacks occur even with the
// benchmark bound to a single processor, because "the operating system runs
// on all 16 processors"; these daemons are that activity.
type DaemonConfig struct {
	// Comp is the kernel code component the daemons execute.
	Comp *ifetch.Component
	// SharedLines are kernel data lines every daemon reads/updates (run
	// queues, callout tables, vm statistics) — the cross-processor
	// communication source.
	SharedLines []mem.Addr
	// MeanIntervalCycles is the mean sleep between daemon bouts.
	MeanIntervalCycles uint64
	// BoutInstr is the kernel path length per bout.
	BoutInstr uint32
}

// DefaultDaemonConfig returns a light background load (~1% of one CPU per
// daemon) touching the given kernel lines.
func DefaultDaemonConfig(comp *ifetch.Component, lines []mem.Addr) DaemonConfig {
	return DaemonConfig{
		Comp:               comp,
		SharedLines:        lines,
		MeanIntervalCycles: 400_000,
		BoutInstr:          4_000,
	}
}

// Daemon is an OpSource producing periodic kernel bouts. Create one per
// processor and pin it there with AddPinnedThread: it serves one thread, so
// it records every bout into one reused recorder.
type Daemon struct {
	cfg DaemonConfig
	rng *simrand.Rand
	rec trace.Recorder
}

// NewDaemon returns a daemon with its own RNG stream.
func NewDaemon(cfg DaemonConfig, rng *simrand.Rand) *Daemon {
	if !cfg.Comp.Kernel {
		panic("osmodel: daemons must run kernel components")
	}
	return &Daemon{cfg: cfg, rng: rng}
}

// NextOp emits one sleep-then-work bout.
func (d *Daemon) NextOp(tid int, now uint64) *trace.Op {
	rec := &d.rec
	rec.Reset("os-daemon", false)
	rec.Think(uint32(d.rng.Exp(float64(d.cfg.MeanIntervalCycles))))
	rec.Instr(d.cfg.Comp.ID, d.cfg.BoutInstr)
	for i, a := range d.cfg.SharedLines {
		if (i+tid)%4 == 0 {
			rec.Write(a, 8)
		} else {
			rec.Read(a, 8)
		}
	}
	rec.Instr(d.cfg.Comp.ID, d.cfg.BoutInstr/4)
	return rec.Handoff()
}

// AddOSDaemons registers one pinned daemon per processor of the machine,
// all touching the same shared kernel lines. It reserves the kernel data
// region from space. Returns the shared lines for inspection.
func AddOSDaemons(e *Engine, space *mem.AddrSpace, comp *ifetch.Component, rng *simrand.Rand) []mem.Addr {
	region := space.Reserve("kernel:daemon-shared", 8*mem.LineBytes)
	var lines []mem.Addr
	for i := 0; i < 8; i++ {
		lines = append(lines, region.Base+uint64(i)*mem.LineBytes)
	}
	cfg := DefaultDaemonConfig(comp, lines)
	for c := 0; c < e.cfg.CPUs; c++ {
		d := NewDaemon(cfg, rng.Derive(uint64(c)+1000))
		e.AddPinnedThread("osdaemon", d, c)
	}
	return lines
}

// FuncSource adapts a function to OpSource.
type FuncSource func(tid int, now uint64) *trace.Op

// NextOp calls the function.
func (f FuncSource) NextOp(tid int, now uint64) *trace.Op { return f(tid, now) }

// ScriptSource plays a fixed list of operations, then ends the thread.
type ScriptSource struct {
	Ops []*trace.Op
	i   int
}

// NextOp returns the next scripted op.
func (s *ScriptSource) NextOp(tid int, now uint64) *trace.Op {
	if s.i >= len(s.Ops) {
		return nil
	}
	op := s.Ops[s.i]
	s.i++
	return op
}
