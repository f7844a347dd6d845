// Package memsys assembles the machine's memory hierarchy: per-processor
// split L1 instruction and data caches in front of MOSI-coherent L2 caches
// on a snooping bus, with main memory behind it.
//
// The E6000 the paper measured had one private 1 MB L2 per processor; the
// CMP study of Figure 16 instead shares one L2 among 2, 4, or 8 processors.
// Both shapes are the same Hierarchy here, parameterized by CPUsPerL2.
//
// Every data access is classified into the stall categories of the paper's
// Figure 7 — L1 hit (no stall), L2 hit, cache-to-cache transfer, memory,
// plus the upgrade case — and charged the corresponding latency. The
// latencies default to E6000-like values where a cache-to-cache transfer is
// ~40% slower than a memory access (§4.3).
package memsys

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/tlb"
)

// Latencies are stall cycles charged by data source. L1 hits are fully
// pipelined and charge nothing.
type Latencies struct {
	L2Hit   uint64
	Memory  uint64
	C2C     uint64 // cache-to-cache transfer (snoop copyback)
	Upgrade uint64 // ownership upgrade, no data movement
}

// DefaultLatencies returns E6000-flavored latencies at 248 MHz scale:
// memory ~75 cycles, cache-to-cache 40% longer (§4.3 of the paper).
func DefaultLatencies() Latencies {
	return Latencies{L2Hit: 10, Memory: 75, C2C: 105, Upgrade: 20}
}

// StallClass classifies where a data access was served, for the Figure 7
// breakdown.
type StallClass uint8

const (
	// StallNone: L1 hit.
	StallNone StallClass = iota
	// StallL2Hit: served by the local L2 (includes upgrades).
	StallL2Hit
	// StallC2C: served by another cache over the bus.
	StallC2C
	// StallMem: served by main memory.
	StallMem
)

// String names the stall class.
func (s StallClass) String() string {
	switch s {
	case StallNone:
		return "l1"
	case StallL2Hit:
		return "l2hit"
	case StallC2C:
		return "c2c"
	case StallMem:
		return "mem"
	default:
		return fmt.Sprintf("StallClass(%d)", uint8(s))
	}
}

// Result reports one access's timing. TLBStall is reported separately from
// the cache stall: it is a software-refill trap, not a memory access.
type Result struct {
	Stall    uint64
	TLBStall uint64
	Class    StallClass
}

// Config describes the hierarchy's shape.
type Config struct {
	CPUs      int
	CPUsPerL2 int // 1 = private L2s (E6000); 2/4/8 = shared-cache CMP (Fig 16)
	L1I, L1D  cache.Config
	L2        cache.Config
	Lat       Latencies
	// DTLB puts a base-page data TLB in front of each processor's data
	// accesses. The paper's runs used Solaris ISM (4 MB pages), which
	// makes the TLB effectively transparent; the ISM ablation sets base
	// pages here and measures the damage (§6 of the paper).
	DTLB bool
	// Model selects how Memory/C2C latencies respond to offered load:
	// MemFixed (default) charges Lat's unloaded scalars; MemLoaded charges
	// the bandwidth–latency curve of Loaded (see loaded.go).
	Model MemModel
	// Loaded parameterizes the loaded model; unset fields take
	// DefaultLoadedConfig values. Ignored under MemFixed.
	Loaded LoadedConfig
}

// DefaultConfig returns the E6000-like baseline: 16 KB split L1s and a
// private 1 MB 4-way L2 per processor, 64-byte blocks everywhere.
func DefaultConfig(cpus int) Config {
	return Config{
		CPUs:      cpus,
		CPUsPerL2: 1,
		L1I:       cache.Config{Name: "L1I", SizeBytes: 16 << 10, Assoc: 2, BlockBytes: 64},
		L1D:       cache.Config{Name: "L1D", SizeBytes: 16 << 10, Assoc: 2, BlockBytes: 64},
		L2:        cache.Config{Name: "L2", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64},
		Lat:       DefaultLatencies(),
	}
}

// Validate checks the shape.
func (c Config) Validate() error {
	if c.CPUs <= 0 {
		return fmt.Errorf("memsys: %d CPUs", c.CPUs)
	}
	if c.CPUsPerL2 <= 0 || c.CPUs%c.CPUsPerL2 != 0 {
		return fmt.Errorf("memsys: %d CPUs not divisible into groups of %d", c.CPUs, c.CPUsPerL2)
	}
	if l2s := c.CPUs / c.CPUsPerL2; l2s > coherence.MaxNodes {
		return fmt.Errorf("memsys: %d L2s exceed the bus's %d-node snoop filter", l2s, coherence.MaxNodes)
	}
	if c.L1I.BlockBytes != c.L2.BlockBytes || c.L1D.BlockBytes != c.L2.BlockBytes {
		return fmt.Errorf("memsys: L1/L2 block sizes differ")
	}
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.Model == MemLoaded {
		if err := c.Loaded.withDefaults().Validate(); err != nil {
			return err
		}
	}
	return nil
}

// L1 states: lines loaded by reads are held Shared; lines written are held
// Modified. A write to a Shared L1 line must consult the L2/bus.
const (
	l1Shared   cache.State = 1
	l1Modified cache.State = 2
)

type cpuPort struct {
	l1i, l1d *cache.Cache
	dtlb     *tlb.TLB // nil when translation is not modeled
	node     *coherence.Node
	group    []int // CPU IDs sharing this port's node (including self)
}

// Hierarchy is one machine's assembled memory system.
type Hierarchy struct {
	cfg Config
	bus *coherence.Bus
	// ports is indexed by CPU and stored by value: the per-access path loads
	// a port's fields with one indexed access instead of chasing a pointer.
	ports []cpuPort

	// DataMisses and FetchMisses count bus-level (L2) misses that moved
	// data, split by access kind — Figure 16 plots the data side.
	DataMisses  uint64
	FetchMisses uint64

	// lm is the loaded-latency model's state; nil under MemFixed, keeping
	// the fixed model's stall charging bit-identical to the pre-model code.
	lm *loadedModel
}

// New builds the hierarchy. It panics on an invalid config (static
// experiment configuration).
func New(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg, bus: coherence.NewBus()}
	if cfg.Model == MemLoaded {
		lc := cfg.Loaded.withDefaults()
		h.lm = &loadedModel{
			cfg: lc,
			tracker: coherence.NewLoadTracker(coherence.LoadConfig{
				WindowCycles:          lc.WindowCycles,
				Buckets:               lc.Buckets,
				LineCycles:            lc.LineCycles,
				WriteWeight:           lc.WriteWeight,
				InterventionStartUtil: lc.InterventionStartUtil,
				InterventionMaxFrac:   lc.InterventionMaxFrac,
			}),
		}
		h.bus.Load = h.lm.tracker
	}
	groups := cfg.CPUs / cfg.CPUsPerL2
	ports := make([]cpuPort, cfg.CPUs)
	for g := 0; g < groups; g++ {
		members := make([]int, cfg.CPUsPerL2)
		for i := range members {
			members[i] = g*cfg.CPUsPerL2 + i
		}
		// The node's invalidation hook maintains L1 inclusion for every
		// processor behind this L2.
		node := h.bus.AddNode(cache.New(cfg.L2), func(ba uint64) {
			for _, cpu := range members {
				ports[cpu].l1i.Invalidate(ba)
				ports[cpu].l1d.Invalidate(ba)
			}
		})
		for _, cpu := range members {
			p := &ports[cpu]
			p.l1i = cache.New(cfg.L1I)
			p.l1d = cache.New(cfg.L1D)
			p.node = node
			p.group = members
			if cfg.DTLB {
				p.dtlb = tlb.New()
			}
		}
	}
	h.ports = ports
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Bus returns the snooping bus (for its counters, profile, and timeline).
func (h *Hierarchy) Bus() *coherence.Bus { return h.bus }

// Fetch performs an instruction-block fetch for the CPU, returning the
// stall charged to the front end.
func (h *Hierarchy) Fetch(cpu int, addr mem.Addr, now uint64) Result {
	p := &h.ports[cpu]
	ba := p.l1i.BlockAddr(addr)
	p.l1i.Stats.Fetches++
	if p.l1i.ProbeTouch(ba) != nil {
		return Result{}
	}
	p.l1i.Stats.FetchMisses++
	src := p.node.Read(addr, now)
	if src == coherence.SrcCache || src == coherence.SrcMemory {
		h.FetchMisses++
	}
	p.l1i.Allocate(ba, l1Shared)
	return h.result(src)
}

// Read performs a data load.
func (h *Hierarchy) Read(cpu int, addr mem.Addr, now uint64) Result {
	p := &h.ports[cpu]
	var ts uint64
	if p.dtlb != nil {
		ts = p.dtlb.Access(addr)
	}
	ba := p.l1d.BlockAddr(addr)
	p.l1d.Stats.Reads++
	if p.l1d.ProbeTouch(ba) != nil {
		return Result{TLBStall: ts}
	}
	p.l1d.Stats.ReadMisses++
	src := p.node.Read(addr, now)
	if src == coherence.SrcCache || src == coherence.SrcMemory {
		h.DataMisses++
	}
	p.l1d.Allocate(ba, l1Shared)
	r := h.result(src)
	r.TLBStall = ts
	return r
}

// Write performs a data store. The returned stall is the store's completion
// latency; whether it stalls the processor is the store buffer's decision
// (internal/cpu).
func (h *Hierarchy) Write(cpu int, addr mem.Addr, now uint64) Result {
	p := &h.ports[cpu]
	var ts uint64
	if p.dtlb != nil {
		ts = p.dtlb.Access(addr)
	}
	ba := p.l1d.BlockAddr(addr)
	p.l1d.Stats.Writes++
	// Invalidate sibling L1 copies behind the same L2: within-group
	// coherence is maintained directly (and cheaply), which is exactly the
	// shared-cache benefit of Figure 16.
	h.invalidateSiblings(cpu, ba)
	if l := p.l1d.ProbeTouch(ba); l != nil {
		if l.State() == l1Modified {
			// L1 write hit with permission: still ensure L2 ownership is
			// recorded (it is, by the earlier miss that set l1Modified).
			l.SetDirty(true)
			return Result{TLBStall: ts}
		}
		// Shared in L1: need ownership from the L2/bus.
		src := p.node.Write(addr, now)
		if src == coherence.SrcCache || src == coherence.SrcMemory {
			h.DataMisses++
		}
		l.SetState(l1Modified)
		l.SetDirty(true)
		r := h.result(src)
		r.TLBStall = ts
		return r
	}
	p.l1d.Stats.WriteMisses++
	src := p.node.Write(addr, now)
	if src == coherence.SrcCache || src == coherence.SrcMemory {
		h.DataMisses++
	}
	l, _, _ := p.l1d.Allocate(ba, l1Modified)
	l.SetDirty(true)
	r := h.result(src)
	r.TLBStall = ts
	return r
}

func (h *Hierarchy) invalidateSiblings(cpu int, ba uint64) {
	p := &h.ports[cpu]
	if len(p.group) == 1 {
		return
	}
	for _, other := range p.group {
		if other == cpu {
			continue
		}
		h.ports[other].l1d.Invalidate(ba)
	}
}

func (h *Hierarchy) result(src coherence.Source) Result {
	switch src {
	case coherence.SrcLocal:
		return Result{Stall: h.cfg.Lat.L2Hit, Class: StallL2Hit}
	case coherence.SrcUpgrade:
		return Result{Stall: h.cfg.Lat.Upgrade, Class: StallL2Hit}
	case coherence.SrcCache:
		s := h.cfg.Lat.C2C
		if h.lm != nil {
			s = h.lm.c2cStall(s)
		}
		return Result{Stall: s, Class: StallC2C}
	default:
		s := h.cfg.Lat.Memory
		if h.lm != nil {
			s = h.lm.memStall(s)
		}
		return Result{Stall: s, Class: StallMem}
	}
}

// L1I returns a CPU's instruction cache (for stats).
func (h *Hierarchy) L1I(cpu int) *cache.Cache { return h.ports[cpu].l1i }

// L1D returns a CPU's data cache (for stats).
func (h *Hierarchy) L1D(cpu int) *cache.Cache { return h.ports[cpu].l1d }

// DTLBMissRatio is the machine's data-TLB miss ratio: misses over lookups
// summed across every processor's TLB (0 when translation is not modeled).
func (h *Hierarchy) DTLBMissRatio() float64 {
	var lookups, misses uint64
	for _, p := range h.ports {
		if p.dtlb != nil {
			lookups += p.dtlb.Lookups
			misses += p.dtlb.Misses
		}
	}
	if lookups == 0 {
		return 0
	}
	return float64(misses) / float64(lookups)
}

// L2MissesPer1000 returns bus data requests (L2 misses) per 1000 of the
// given instruction count.
func (h *Hierarchy) L2MissesPer1000(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return 1000 * float64(h.bus.Stats.DataRequests()) / float64(instructions)
}

// DataMissesPer1000 returns bus-level data misses per 1000 instructions —
// the Figure 16 metric (data cache miss rate of the shared/private L2s).
func (h *Hierarchy) DataMissesPer1000(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return 1000 * float64(h.DataMisses) / float64(instructions)
}

// ResetStats zeroes all cache and bus counters, keeping contents warm, so
// measurement can exclude warm-up.
func (h *Hierarchy) ResetStats() {
	seen := map[*coherence.Node]bool{}
	for _, p := range h.ports {
		p.l1i.ResetStats()
		p.l1d.ResetStats()
		if p.dtlb != nil {
			p.dtlb.ResetStats()
		}
		if !seen[p.node] {
			p.node.L2().ResetStats()
			seen[p.node] = true
		}
	}
	h.bus.ResetStats()
	h.DataMisses = 0
	h.FetchMisses = 0
	if h.lm != nil {
		// The extra-stall and intervention accounting are stats; the
		// utilization window and intervention ramp are machine state and
		// stay warm across the boundary, like the caches.
		h.lm.MemExtraCycles = 0
		h.lm.C2CExtraCycles = 0
		h.lm.tracker.ResetInterventions()
	}
}
