// Package ifetch models instruction fetch without interpreting instructions.
//
// The paper's Figure 12 shows that the two workloads differ mainly in
// *instruction footprint*: ECperf executes a commercial application server,
// servlet engine, EJB runtime, and kernel network stack (a large, flat code
// working set that overwhelms intermediate-size caches), while SPECjbb runs
// a compact all-in-one benchmark. What a miss-rate-versus-cache-size curve
// needs from an instruction stream is exactly its footprint and locality —
// not opcode semantics — so each code component here is a synthetic binary:
// a code region divided into popularity tiers (hot/warm/cold), fetched in
// sequential basic-block runs.
//
// A Gen holds per-processor fetch state; instruction segments expand into
// 64-byte fetch-block addresses that the memory hierarchy consumes.
package ifetch

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/simrand"
)

// InstrPerBlock is how many instructions one 64-byte fetch block holds
// (4-byte fixed-width instructions, as on SPARC).
const InstrPerBlock = 16

// BlockBytes is the fetch-block granularity.
const BlockBytes = 64

// Tier assigns a fraction of a component's fetches to a fraction of its
// code. Tiers let a component model a hot inner loop plus a long cold tail.
type Tier struct {
	CodeFrac  float64 // fraction of the component's code region
	FetchFrac float64 // fraction of the component's fetches
}

// Profile shapes a component's fetch behavior.
type Profile struct {
	// Tiers partition the code region; CodeFrac and FetchFrac must each sum
	// to 1 (±1e-6). Nil means a single uniform tier.
	Tiers []Tier
	// RunBlocks is the mean sequential run length in fetch blocks before
	// the stream jumps to a new location (branch). Defaults to 4.
	RunBlocks int
}

func (p Profile) validate() error {
	if p.RunBlocks < 0 {
		return fmt.Errorf("ifetch: negative RunBlocks %d", p.RunBlocks)
	}
	if len(p.Tiers) == 0 {
		return nil
	}
	var code, fetch float64
	for _, t := range p.Tiers {
		if t.CodeFrac < 0 || t.FetchFrac < 0 {
			return fmt.Errorf("ifetch: negative tier fraction %+v", t)
		}
		code += t.CodeFrac
		fetch += t.FetchFrac
	}
	if code < 1-1e-6 || code > 1+1e-6 || fetch < 1-1e-6 || fetch > 1+1e-6 {
		return fmt.Errorf("ifetch: tier fractions sum to (%v code, %v fetch), want 1", code, fetch)
	}
	return nil
}

// Component is one synthetic binary: a named code region with a fetch
// profile and an execution mode.
type Component struct {
	ID      mem.ComponentID
	Name    string
	Region  mem.Region
	Kernel  bool // fetches execute in system (kernel) mode
	profile Profile

	// tier boundaries precomputed in blocks
	tierStart []uint64 // first block index of each tier
	tierLen   []uint64 // blocks in each tier
	fetchCDF  []float64
}

// Blocks returns the component's code size in fetch blocks.
func (c *Component) Blocks() uint64 { return c.Region.Size / BlockBytes }

// CodeLayout registers the components of one machine and carves their code
// regions out of its address space.
type CodeLayout struct {
	space *mem.AddrSpace
	comps []*Component
}

// NewCodeLayout returns a layout carving regions from space.
func NewCodeLayout(space *mem.AddrSpace) *CodeLayout {
	return &CodeLayout{space: space}
}

// Add registers a component with the given code size (rounded up to a whole
// number of fetch blocks, minimum one). It panics on an invalid profile —
// profiles are static experiment configuration.
func (l *CodeLayout) Add(name string, codeBytes uint64, kernel bool, p Profile) *Component {
	if err := p.validate(); err != nil {
		panic(err)
	}
	if len(l.comps) >= 255 {
		panic("ifetch: too many components")
	}
	if codeBytes < BlockBytes {
		codeBytes = BlockBytes
	}
	codeBytes = (codeBytes + BlockBytes - 1) &^ (BlockBytes - 1)
	if p.RunBlocks == 0 {
		p.RunBlocks = 4
	}
	if len(p.Tiers) == 0 {
		p.Tiers = []Tier{{CodeFrac: 1, FetchFrac: 1}}
	}
	c := &Component{
		ID:      mem.ComponentID(len(l.comps)),
		Name:    name,
		Region:  l.space.Reserve("code:"+name, codeBytes),
		Kernel:  kernel,
		profile: p,
	}
	// Precompute tier geometry in blocks. The last tier absorbs rounding.
	total := c.Blocks()
	var start uint64
	cum := 0.0
	for i, t := range p.Tiers {
		var n uint64
		if i == len(p.Tiers)-1 {
			n = total - start
		} else {
			n = uint64(t.CodeFrac * float64(total))
			if n == 0 {
				n = 1
			}
			if start+n > total {
				n = total - start
			}
		}
		c.tierStart = append(c.tierStart, start)
		c.tierLen = append(c.tierLen, n)
		cum += t.FetchFrac
		c.fetchCDF = append(c.fetchCDF, cum)
		start += n
	}
	l.comps = append(l.comps, c)
	return c
}

// Component returns the component with the given ID.
func (l *CodeLayout) Component(id mem.ComponentID) *Component {
	return l.comps[id]
}

// Components returns all registered components.
func (l *CodeLayout) Components() []*Component { return l.comps }

// genComp is a Gen's per-component fetch cursor, packed with the
// component's region base and size so the sequential-run fast path of
// NextRun touches exactly one small struct instead of chasing the
// component pointer and three parallel slices.
type genComp struct {
	base   mem.Addr
	blocks uint64 // code size in fetch blocks
	cur    uint64 // current block index
	left   int64  // remaining sequential run length
}

// Gen generates one processor's fetch-block address stream across all
// components of a layout. Each processor (or sweep driver) owns one Gen so
// that locality is per-processor, as in hardware.
type Gen struct {
	layout *CodeLayout
	rng    *simrand.Rand
	comps  []genComp
}

// NewGen returns a generator over the layout with its own RNG stream.
func NewGen(layout *CodeLayout, rng *simrand.Rand) *Gen {
	g := &Gen{layout: layout, rng: rng, comps: make([]genComp, len(layout.comps))}
	for i, c := range layout.comps {
		g.comps[i] = genComp{base: c.Region.Base, blocks: c.Blocks()}
	}
	return g
}

// jump picks a new block for the component: choose a tier by fetch weight,
// then a uniform block within the tier, and draw a new sequential run.
func (g *Gen) jump(c *Component) {
	u := g.rng.Float64()
	ti := len(c.fetchCDF) - 1
	for i, cdf := range c.fetchCDF {
		if u < cdf {
			ti = i
			break
		}
	}
	blk := c.tierStart[ti]
	if c.tierLen[ti] > 1 {
		blk += uint64(g.rng.Int63n(int64(c.tierLen[ti])))
	}
	// Geometric-ish run length around the profile mean, at least 1.
	run := 1 + g.rng.Intn(2*c.profile.RunBlocks)
	gc := &g.comps[c.ID]
	gc.cur = blk
	gc.left = int64(run)
}

// NextRun returns the next fetch blocks as one sequential run: the first
// block's address and the block count (1..max). The run ends at the next
// branch or region end, or after max blocks, so a fetch loop pays one call
// per run instead of one per 64-byte block.
func (g *Gen) NextRun(id mem.ComponentID, max uint64) (mem.Addr, uint64) {
	gc := &g.comps[id]
	if gc.left <= 0 || gc.cur >= gc.blocks {
		g.jump(g.layout.comps[id])
	}
	n := uint64(gc.left)
	if rem := gc.blocks - gc.cur; n > rem {
		n = rem
	}
	if n > max {
		n = max
	}
	addr := gc.base + gc.cur*BlockBytes
	gc.cur += n
	gc.left -= int64(n)
	return addr, n
}

// BlocksFor returns how many fetch blocks a segment of n instructions
// occupies (rounding up; zero instructions fetch nothing).
func BlocksFor(n uint64) uint64 {
	return (n + InstrPerBlock - 1) / InstrPerBlock
}
