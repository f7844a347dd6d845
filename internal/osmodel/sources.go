package osmodel

import (
	"repro/internal/ifetch"
	"repro/internal/mem"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// The background OS activity runs on every processor of the machine,
// inside or outside the workload's processor set. The paper observes (§4.3)
// that snoop copybacks occur even with the benchmark bound to a single
// processor, because "the operating system runs on all 16 processors";
// these daemons are that activity: a light background load (~1% of one CPU
// per daemon).
const (
	// daemonIntervalCycles is the mean sleep between daemon bouts.
	daemonIntervalCycles uint64 = 400_000
	// daemonBoutInstr is the kernel path length per bout.
	daemonBoutInstr uint32 = 4_000
)

// daemon is an OpSource producing periodic kernel bouts. AddOSDaemons
// creates one per processor and pins it there: it serves one thread, so it
// records every bout into one reused recorder.
type daemon struct {
	// comp is the kernel code component the daemon executes.
	comp *ifetch.Component
	// lines are kernel data lines every daemon reads/updates (run queues,
	// callout tables, vm statistics) — the cross-processor communication
	// source.
	lines []mem.Addr
	rng   *simrand.Rand
	rec   trace.Recorder
}

// NextOp emits one sleep-then-work bout.
func (d *daemon) NextOp(tid int, now uint64) *trace.Op {
	rec := &d.rec
	rec.Reset("os-daemon", false)
	rec.Think(uint32(d.rng.Exp(float64(daemonIntervalCycles))))
	rec.Instr(d.comp.ID, daemonBoutInstr)
	for i, a := range d.lines {
		if (i+tid)%4 == 0 {
			rec.Write(a, 8)
		} else {
			rec.Read(a, 8)
		}
	}
	rec.Instr(d.comp.ID, daemonBoutInstr/4)
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
	if !comp.Kernel {
		panic("osmodel: daemons must run kernel components")
	}
	for c := 0; c < e.cfg.CPUs; c++ {
		d := &daemon{comp: comp, lines: lines, rng: rng.Derive(uint64(c) + 1000)}
		e.AddPinnedThread("osdaemon", d, c)
	}
	return lines
}
