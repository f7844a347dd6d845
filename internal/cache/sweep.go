package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/mem"
)

// Sweep drives many cache geometries with the same reference stream in one
// pass, reproducing the paper's Simics+Sumo flow for Figures 12 and 13:
// miss rate versus cache size for a fixed associativity and block size.
//
// It does not use Cache: the sweep needs no coherence state and no *Line
// pointers, so each geometry is a bare array of 4-byte tag words, assoc per
// set, kept in most-recently-used-first order as in Cache. A word is
// tag<<1 | valid, where the tag is the block number above the set index; a
// hit moves its word to the front and a miss shifts the set right, evicting
// the last word when it is valid. That is exact true LRU in 4 bytes per way
// with no clock. The sweep counts misses only, so a word keeps no dirty bit
// and a write moves a block like a read. Unlike Cache, the sweep takes blocks
// of any power-of-two size. A tag must fit 31 bits: a reference to a block at
// or above 2^31 times the set count of its group's smallest geometry panics,
// naming the geometry and the address.
//
// Geometries sharing a block size and associativity form a group, sorted by
// set count. Power-of-two bit-selection sets nest, so under LRU every block
// resident in a group member is resident in each member with more sets
// (Mattson; Hill & Smith), and a block at the front of its set in the
// smallest member is at the front of its set in every member. A reference to
// such a block changes no member's contents, so it skips every probe. The
// same holds for each member against the larger ones, so a reference walks
// the members in ascending size and stops at the first that already holds
// the block at the front.
//
// A 4-way group (the size ladder's and the block ladder's) walks its members
// in one loop per block, each member's move-to-front inline as four compares
// and a fixed shift; other groups check the smallest member's front word and
// then touch each member in turn. A fetch run reaches a group whose blocks
// are the 64 B fetch blocks as one range of consecutive blocks, one call for
// the run rather than one per fetch. EXPERIMENTS.md ("Host performance")
// has the A/B measurements of both.
type Sweep struct {
	groups []*sweepGroup
	// order locates each geometry, in configuration order, for MissCurve.
	order []geomRef
	// Instructions counts retired instructions reported by the driver, the
	// denominator for misses-per-1000-instructions.
	Instructions uint64
}

// sweepGroup is the geometries of one (block size, associativity) pair.
type sweepGroup struct {
	blockShift uint
	assoc      uint64
	geoms      []sweepGeom // ascending set count
	// limit is the first block number whose tag overflows a word of the
	// smallest member, smallest, which has the fewest sets and so the widest
	// tags.
	limit    uint64
	smallest Config
	// acc counts block accesses by kind: every reference to the group is an
	// access in every member, so accesses are counted once per group.
	acc [4]uint64
}

// sweepGeom is one geometry's MRU-first tag words and its own counters.
type sweepGeom struct {
	words   []uint32
	setMask uint64
	setBits uint      // log2 of the set count: a block's tag is blk >> setBits
	miss    [4]uint64 // by kind, like sweepGroup.acc
}

type geomRef struct {
	sizeBytes int
	grp       *sweepGroup
	idx       int
}

// kind maps an access type to a counter slot. Slot 3 takes unknown types,
// which change cache contents but are reported nowhere.
func kind(t mem.AccessType) int {
	if t > mem.IFetch {
		return 3
	}
	return int(t)
}

// NewSweep builds a sweep over the given geometries; like New, it panics on
// an invalid one.
func NewSweep(cfgs []Config) *Sweep {
	s := &Sweep{order: make([]geomRef, len(cfgs))}
	var members [][]int // configuration indices, parallel to s.groups
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			panic(err)
		}
		shift := uint(bits.TrailingZeros(uint(cfg.BlockBytes)))
		gi := 0
		for gi < len(s.groups) && (s.groups[gi].blockShift != shift || s.groups[gi].assoc != uint64(cfg.Assoc)) {
			gi++
		}
		if gi == len(s.groups) {
			s.groups = append(s.groups, &sweepGroup{blockShift: shift, assoc: uint64(cfg.Assoc)})
			members = append(members, nil)
		}
		members[gi] = append(members[gi], i)
	}
	for gi, g := range s.groups {
		m := members[gi]
		sort.SliceStable(m, func(a, b int) bool { return cfgs[m[a]].Sets() < cfgs[m[b]].Sets() })
		for j, i := range m {
			sets := cfgs[i].Sets()
			g.geoms = append(g.geoms, sweepGeom{
				words:   make([]uint32, sets*cfgs[i].Assoc),
				setMask: uint64(sets - 1),
				setBits: uint(bits.TrailingZeros(uint(sets))),
			})
			s.order[i] = geomRef{sizeBytes: cfgs[i].SizeBytes, grp: g, idx: j}
		}
		g.limit, g.smallest = (maxSweepTag+1)<<g.geoms[0].setBits, cfgs[m[0]]
	}
	return s
}

// SizeSweepConfigs returns the standard ladder of geometries used in the
// paper's Figures 12/13: sizes from 64 KB to 16 MB, 4-way set associative,
// 64-byte blocks.
func SizeSweepConfigs(name string) []Config {
	var out []Config
	for size := 64 << 10; size <= 16<<20; size <<= 1 {
		out = append(out, Config{Name: name, SizeBytes: size, Assoc: 4, BlockBytes: 64})
	}
	return out
}

// AssocSweepConfigs varies associativity (direct-mapped through 16-way) at
// a fixed size and 64-byte blocks. The paper's memory-system simulator
// "allowed us to measure several cache performance statistics on a variety
// of caches with different sizes, associativities and block sizes" (§3.3);
// it reported 4-way numbers, this exposes the other dimension.
func AssocSweepConfigs(name string, sizeBytes int) []Config {
	var out []Config
	for assoc := 1; assoc <= 16; assoc <<= 1 {
		out = append(out, Config{Name: name, SizeBytes: sizeBytes, Assoc: assoc, BlockBytes: 64})
	}
	return out
}

// BlockSweepConfigs varies the block size (16-256 bytes) at a fixed size
// and 4-way associativity.
func BlockSweepConfigs(name string, sizeBytes int) []Config {
	var out []Config
	for block := 16; block <= 256; block <<= 1 {
		out = append(out, Config{Name: name, SizeBytes: sizeBytes, Assoc: 4, BlockBytes: block})
	}
	return out
}

// AccessRange feeds a byte-range reference to every cache in the sweep: one
// access per block the range touches, in each geometry's block size.
func (s *Sweep) AccessRange(a mem.Addr, size uint64, t mem.AccessType) {
	if size == 0 {
		return
	}
	k := kind(t)
	for _, g := range s.groups {
		g.access(a>>g.blockShift, (a+size-1)>>g.blockShift, k)
	}
}

// maxSweepTag is the largest tag a sweep word holds, above its valid bit.
const maxSweepTag = 1<<31 - 1

// fetchBlockBytes is the instruction-fetch block (ifetch.BlockBytes), and
// fetchBlockShift its log2.
const (
	fetchBlockBytes = 64
	fetchBlockShift = 6
)

// FetchRun feeds an instruction-fetch run to every cache in the sweep: n
// single-byte fetches, one per 64 B fetch block from a, so a geometry with
// smaller blocks sees only the first block of each fetch block. A group whose
// blocks are fetch blocks takes the run as one range of n blocks; a group
// with larger blocks takes each fetch as its own reference, since two
// fetches can share one of its blocks.
func (s *Sweep) FetchRun(a mem.Addr, n uint64) {
	if n == 0 {
		return
	}
	k := kind(mem.IFetch)
	for _, g := range s.groups {
		if g.blockShift == fetchBlockShift {
			first := a >> fetchBlockShift
			g.access(first, first+n-1, k)
			continue
		}
		for i := uint64(0); i < n; i++ {
			blk := (a + i*fetchBlockBytes) >> g.blockShift
			g.access(blk, blk, k)
		}
	}
}

// access feeds blocks first..last to every member of the group, counting
// them as accesses of kind k. A block whose tag does not fit a word of the
// smallest member, the one with the widest tags, panics here, once per
// reference, rather than alias another block.
//
// Each block walks the members in ascending size, moving its word to the
// front of its set in each (allocating it on a miss), and stops at the
// first member that already holds it at the front: that set is unchanged,
// and by inclusion so is every larger member's.
func (g *sweepGroup) access(first, last uint64, k int) {
	if last >= g.limit {
		g.tagOverflow(last)
	}
	g.acc[k&3] += last - first + 1
	if g.assoc == 4 {
		g.access4(first, last, k)
		return
	}
	small := &g.geoms[0]
	for blk := first; blk <= last; blk++ {
		if small.words[(blk&small.setMask)*g.assoc] == small.word(blk) {
			continue // at the front everywhere
		}
		for i := range g.geoms {
			if g.geoms[i].touch(blk, k, g.assoc) {
				break // at the front here, so in every larger member too
			}
		}
	}
}

// access4 is access's walk for a 4-way group: the set is an array, the
// search four compares, and the move to the front a fixed shift of the words
// ahead of the hit (all four on a miss, the last one the victim).
func (g *sweepGroup) access4(first, last uint64, k int) {
	for blk := first; blk <= last; blk++ {
		for i := range g.geoms {
			m := &g.geoms[i]
			set := (*[4]uint32)(m.words[(blk&m.setMask)*4:])
			want := m.word(blk)
			w0 := set[0]
			if w0 == want {
				break // at the front here, so in every larger member too
			}
			w1 := set[1]
			if w1 == want {
				set[1], set[0] = w0, want
				continue
			}
			w2 := set[2]
			if w2 == want {
				set[2], set[1], set[0] = w1, w0, want
				continue
			}
			if set[3] != want {
				m.miss[k&3]++
			}
			set[3], set[2], set[1], set[0] = w2, w1, w0, want
		}
	}
}

// tagOverflow panics on block blk, at or above the group's limit.
//
//go:noinline
func (g *sweepGroup) tagOverflow(blk uint64) {
	panic(fmt.Sprintf("cache sweep %v: block %#x at or above the tag bound %#x",
		g.smallest, blk<<g.blockShift, g.limit<<g.blockShift))
}

// word is the valid tag word of block blk in this geometry.
func (m *sweepGeom) word(blk uint64) uint32 { return uint32(blk>>m.setBits)<<1 | 1 }

// touch moves block blk to the front of its set, allocating it on a miss. It
// reports whether the block was already at the front: then the set is
// unchanged, and by inclusion so is every larger member's.
func (m *sweepGeom) touch(blk uint64, k int, assoc uint64) bool {
	base := (blk & m.setMask) * assoc
	set := m.words[base : base+assoc : base+assoc]
	want := m.word(blk)
	i := 0
	for i < len(set) && set[i] != want {
		i++
	}
	if i == 0 {
		return true
	}
	if i == len(set) {
		m.miss[k&3]++
		i--
	}
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = want
	return false
}

// CountInstructions adds to the retired-instruction denominator.
func (s *Sweep) CountInstructions(n uint64) { s.Instructions += n }

// ResetStats zeroes every geometry's counters and the instruction count,
// keeping contents warm.
func (s *Sweep) ResetStats() {
	for _, g := range s.groups {
		g.acc = [4]uint64{}
		for i := range g.geoms {
			g.geoms[i].miss = [4]uint64{}
		}
	}
	s.Instructions = 0
}

// stats returns the counters of the i-th configured geometry.
func (s *Sweep) stats(i int) Stats {
	r := s.order[i]
	acc, m := &r.grp.acc, &r.grp.geoms[r.idx]
	return Stats{
		Reads: acc[mem.Read], ReadMisses: m.miss[mem.Read],
		Writes: acc[mem.Write], WriteMisses: m.miss[mem.Write],
		Fetches: acc[mem.IFetch], FetchMisses: m.miss[mem.IFetch],
	}
}

// Point is one (size, miss-rate) sample of a sweep result.
type Point struct {
	SizeBytes     int
	MissesPer1000 float64 // misses per 1000 instructions
	MissRatio     float64 // misses per access
}

// MissCurve returns misses-per-1000-instructions (and per-access ratios) for
// each geometry in the sweep, in configuration order.
func (s *Sweep) MissCurve() []Point {
	out := make([]Point, 0, len(s.order))
	for i, r := range s.order {
		st := s.stats(i)
		p := Point{SizeBytes: r.sizeBytes, MissRatio: st.MissRatio()}
		if s.Instructions > 0 {
			p.MissesPer1000 = 1000 * float64(st.Misses()) / float64(s.Instructions)
		}
		out = append(out, p)
	}
	return out
}
