// Package cpu models the timing of an in-order, 4-wide UltraSPARC-II-class
// processor at the fidelity the paper's measurements need: a base
// (non-memory) CPI for issue, dependency and branch effects; full exposure
// of load stalls (in-order cores block on loads); an 8-entry store buffer
// that hides store latency until it fills; and a read-after-write hazard
// penalty for loads that consume a just-stored line.
//
// Every cycle a core spends is attributed to one of the paper's CPI
// categories (Figure 6: other / instruction stall / data stall) and the
// data stall is further decomposed (Figure 7: store buffer / RAW / L2 hit /
// cache-to-cache / memory).
package cpu

import (
	"repro/internal/ifetch"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/obs"
)

// Config parameterizes one core's timing.
type Config struct {
	// BaseCPI is the non-memory cycles per instruction (issue limits,
	// dependencies, branches). The UltraSPARC II is 4-wide in-order;
	// commercial Java code sustains nowhere near 4 IPC even without cache
	// misses, so the realistic base is near 1.
	BaseCPI float64
	// StoreBufEntries is the store buffer depth (8 on UltraSPARC II).
	StoreBufEntries int
	// StoreDrainCycles is the minimum spacing between store completions
	// (L2 write port throughput).
	StoreDrainCycles uint64
	// RAWPenalty is charged when a load hits a line stored within
	// RAWWindow cycles (read-after-write hazard, §4.2).
	RAWPenalty uint64
	RAWWindow  uint64
}

// DefaultConfig returns UltraSPARC-II-flavored timing.
func DefaultConfig() Config {
	return Config{
		BaseCPI:          1.0,
		StoreBufEntries:  8,
		StoreDrainCycles: 4,
		RAWPenalty:       6,
		RAWWindow:        24,
	}
}

// Counters attributes a core's cycles to the paper's categories.
type Counters struct {
	Instructions uint64

	BaseCycles   uint64 // "other" in Figure 6
	IStallCycles uint64

	DStallL2Hit    uint64
	DStallC2C      uint64
	DStallMem      uint64
	DStallStoreBuf uint64
	DStallRAW      uint64
	// DStallTLB is software TLB-refill time (zero under ISM, §6).
	DStallTLB uint64
}

// DStall returns total data-stall cycles.
func (c *Counters) DStall() uint64 {
	return c.DStallL2Hit + c.DStallC2C + c.DStallMem + c.DStallStoreBuf + c.DStallRAW + c.DStallTLB
}

// Total returns total busy cycles.
func (c *Counters) Total() uint64 { return c.BaseCycles + c.IStallCycles + c.DStall() }

// CPI returns overall cycles per instruction, or 0 with no instructions.
func (c *Counters) CPI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.Total()) / float64(c.Instructions)
}

// Add accumulates another counter set (for aggregating across cores).
func (c *Counters) Add(o *Counters) {
	c.Instructions += o.Instructions
	c.BaseCycles += o.BaseCycles
	c.IStallCycles += o.IStallCycles
	c.DStallL2Hit += o.DStallL2Hit
	c.DStallC2C += o.DStallC2C
	c.DStallMem += o.DStallMem
	c.DStallStoreBuf += o.DStallStoreBuf
	c.DStallRAW += o.DStallRAW
	c.DStallTLB += o.DStallTLB
}

// Core is one processor's timing state. It is bound to a CPU slot of a
// memsys.Hierarchy and owns that slot's instruction-fetch generator.
type Core struct {
	cfg  Config
	id   int
	hier *memsys.Hierarchy
	gen  *ifetch.Gen

	// Store buffer: completion times of in-flight stores, oldest first, as
	// a fixed ring of StoreBufEntries slots (allocated once per core; the
	// old slice-shift version reallocated the backing array millions of
	// times per run).
	sb        []uint64
	sbHead    int
	sbLen     int
	lastDrain uint64

	// RAW tracking.
	lastStoreLine uint64
	lastStoreTime uint64
	haveStore     bool

	baseCarry float64

	Counters Counters

	// Prof, when non-nil, receives every cycle this core charges,
	// attributed to (component × stall category) — the same charge sites
	// that feed Counters, so a profile and the Figure 6/7 CPI breakdown
	// always agree exactly. Data references are attributed to the component
	// of the most recent instruction segment (curComp), the way hardware
	// counters attribute memory stalls to the running code.
	Prof    *obs.Profiler
	curComp mem.ComponentID
}

// NewCore binds a core to hierarchy slot id with its own fetch generator.
func NewCore(cfg Config, id int, hier *memsys.Hierarchy, gen *ifetch.Gen) *Core {
	if cfg.StoreBufEntries <= 0 {
		panic("cpu: store buffer must have at least one entry")
	}
	return &Core{cfg: cfg, id: id, hier: hier, gen: gen, sb: make([]uint64, cfg.StoreBufEntries)}
}

// ExecInstr executes an n-instruction segment of the given component at
// simulated time now, returning the cycles consumed (base + fetch stalls).
func (c *Core) ExecInstr(comp mem.ComponentID, n uint64, now uint64) uint64 {
	if n == 0 {
		return 0
	}
	var istall uint64
	blocks := ifetch.BlocksFor(n)
	for i := uint64(0); i < blocks; {
		// One generator call per sequential run (mean ~4 blocks) instead
		// of per block; the addresses and generator state are identical.
		addr, cnt := c.gen.NextRun(comp, blocks-i)
		for j := uint64(0); j < cnt; j++ {
			r := c.hier.Fetch(c.id, addr, now+istall)
			istall += r.Stall
			addr += ifetch.BlockBytes
		}
		i += cnt
	}
	base := float64(n)*c.cfg.BaseCPI + c.baseCarry
	baseCycles := uint64(base)
	c.baseCarry = base - float64(baseCycles)

	c.Counters.Instructions += n
	c.Counters.BaseCycles += baseCycles
	c.Counters.IStallCycles += istall
	c.curComp = comp
	if c.Prof != nil {
		c.Prof.AddCycles(int(comp), obs.CatBase, baseCycles)
		c.Prof.AddCycles(int(comp), obs.CatIStall, istall)
	}
	return baseCycles + istall
}

// Load performs a data read of [addr, addr+size), returning stall cycles.
// In-order cores expose the full load latency.
func (c *Core) Load(addr mem.Addr, size uint64, now uint64) uint64 {
	if size == 0 {
		return 0
	}
	var stall uint64
	first := mem.Line(addr)
	last := mem.Line(addr + size - 1)
	for la := first; la <= last; la += mem.LineBytes {
		r := c.hier.Read(c.id, la, now+stall)
		stall += r.Stall + r.TLBStall
		c.Counters.DStallTLB += r.TLBStall
		switch r.Class {
		case memsys.StallL2Hit:
			c.Counters.DStallL2Hit += r.Stall
		case memsys.StallC2C:
			c.Counters.DStallC2C += r.Stall
		case memsys.StallMem:
			c.Counters.DStallMem += r.Stall
		}
		if c.haveStore && la == c.lastStoreLine && now+stall-c.lastStoreTime < c.cfg.RAWWindow {
			stall += c.cfg.RAWPenalty
			c.Counters.DStallRAW += c.cfg.RAWPenalty
			if c.Prof != nil {
				c.Prof.AddCycles(int(c.curComp), obs.CatDRAW, c.cfg.RAWPenalty)
			}
		}
		if c.Prof != nil {
			c.Prof.AddCycles(int(c.curComp), obs.CatDTLB, r.TLBStall)
			c.Prof.AddCycles(int(c.curComp), stallCat(r.Class), r.Stall)
		}
	}
	return stall
}

// stallCat maps a memory-system stall class to its profiler category.
func stallCat(cl memsys.StallClass) obs.Cat {
	switch cl {
	case memsys.StallL2Hit:
		return obs.CatDL2Hit
	case memsys.StallC2C:
		return obs.CatDC2C
	case memsys.StallMem:
		return obs.CatDMem
	default:
		return obs.CatDL2Hit // unreachable: zero-stall classes carry no cycles
	}
}

// Store performs a data write of [addr, addr+size) through the store
// buffer, returning the cycles the processor actually stalls (only when the
// buffer is full).
func (c *Core) Store(addr mem.Addr, size uint64, now uint64) uint64 {
	if size == 0 {
		return 0
	}
	var stall uint64
	first := mem.Line(addr)
	last := mem.Line(addr + size - 1)
	for la := first; la <= last; la += mem.LineBytes {
		t := now + stall
		n := len(c.sb)
		// Retire completed stores.
		for c.sbLen > 0 && c.sb[c.sbHead] <= t {
			c.sbHead++
			if c.sbHead == n {
				c.sbHead = 0
			}
			c.sbLen--
		}
		// A full buffer stalls until the oldest store completes.
		if c.sbLen >= c.cfg.StoreBufEntries {
			wait := c.sb[c.sbHead] - t
			stall += wait
			t += wait
			c.sbHead++
			if c.sbHead == n {
				c.sbHead = 0
			}
			c.sbLen--
			c.Counters.DStallStoreBuf += wait
			if c.Prof != nil {
				c.Prof.AddCycles(int(c.curComp), obs.CatDStoreBuf, wait)
			}
		}
		r := c.hier.Write(c.id, la, t)
		// Translation stalls the pipeline before the store can buffer.
		if r.TLBStall > 0 {
			stall += r.TLBStall
			t += r.TLBStall
			c.Counters.DStallTLB += r.TLBStall
			if c.Prof != nil {
				c.Prof.AddCycles(int(c.curComp), obs.CatDTLB, r.TLBStall)
			}
		}
		// The store drains in the background; its completion respects both
		// its own latency and the drain port's throughput.
		done := t + r.Stall
		if min := c.lastDrain + c.cfg.StoreDrainCycles; done < min {
			done = min
		}
		c.lastDrain = done
		slot := c.sbHead + c.sbLen
		if slot >= n {
			slot -= n
		}
		c.sb[slot] = done
		c.sbLen++

		c.lastStoreLine = la
		c.lastStoreTime = t
		c.haveStore = true
	}
	return stall
}

// DrainStoreBuffer empties the store buffer (used at context switches).
func (c *Core) DrainStoreBuffer() { c.sbHead, c.sbLen = 0, 0 }

// ResetCounters zeroes the CPI accounting (for warm-up exclusion).
func (c *Core) ResetCounters() { c.Counters = Counters{} }
