package cache

import (
	"math/bits"
	"sort"

	"repro/internal/mem"
)

// Sweep drives many cache geometries with the same reference stream in one
// pass, reproducing the paper's Simics+Sumo flow for Figures 12 and 13:
// miss rate versus cache size for a fixed associativity and block size.
//
// It does not use Cache: the sweep needs no coherence state and no *Line
// pointers, so each geometry is a bare array of tag words, assoc per set, kept
// in most-recently-used-first order as in Cache. A word is
// block<<2 | dirty<<1 | valid; a hit moves its word to the front and a miss
// shifts the set right, evicting the last word when it is valid. That is
// exact true LRU in 8 bytes per way with no clock. Block numbers must fit in
// 62 bits; unlike Cache, the sweep takes blocks of any power-of-two size.
//
// Geometries sharing a block size and associativity form a group, sorted by
// set count. Power-of-two bit-selection sets nest, so under LRU every block
// resident in a group member is resident in each member with more sets
// (Mattson; Hill & Smith), and a block at the front of its set in the
// smallest member is at the front of its set in every member. A reference to
// such a block changes no member's contents (for a write, provided the
// smallest member already holds it dirty: the larger members have held it at
// least as long), so it skips every probe. The same holds for each member
// against the larger ones, so a reference walks the members in ascending
// size and stops at the first that already holds the block at the front.
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
	// acc counts block accesses by kind: every reference to the group is an
	// access in every member, so accesses are counted once per group.
	acc [4]uint64
}

// sweepGeom is one geometry's MRU-first tag words and its own counters.
type sweepGeom struct {
	words          []uint64
	setMask        uint64
	miss           [4]uint64 // by kind, like sweepGroup.acc
	evictions      uint64
	dirtyEvictions uint64
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
				words:   make([]uint64, sets*cfgs[i].Assoc),
				setMask: uint64(sets - 1),
			})
			s.order[i] = geomRef{sizeBytes: cfgs[i].SizeBytes, grp: g, idx: j}
		}
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
	var dirty uint64
	if t == mem.Write {
		dirty = 2
	}
	k := kind(t)
	for _, g := range s.groups {
		g.access(a>>g.blockShift, (a+size-1)>>g.blockShift, dirty, k)
	}
}

// fetchBlockBytes is the instruction-fetch block (ifetch.BlockBytes).
const fetchBlockBytes = 64

// FetchRun feeds an instruction-fetch run to every cache in the sweep: n
// single-byte fetches, one per 64 B fetch block from a, so a geometry with
// smaller blocks sees only the first block of each fetch block.
func (s *Sweep) FetchRun(a mem.Addr, n uint64) {
	k := kind(mem.IFetch)
	for _, g := range s.groups {
		for i := uint64(0); i < n; i++ {
			blk := (a + i*fetchBlockBytes) >> g.blockShift
			g.access(blk, blk, 0, k)
		}
	}
}

// access feeds blocks first..last to every member of the group; dirty is 2
// for a write and 0 otherwise.
func (g *sweepGroup) access(first, last, dirty uint64, k int) {
	g.acc[k&3] += last - first + 1
	small := &g.geoms[0]
	for blk := first; blk <= last; blk++ {
		want := blk<<2 | 1
		if w := small.words[(blk&small.setMask)*g.assoc]; w&^2 == want && w|dirty == w {
			continue // at the front everywhere, and dirty already if written
		}
		for i := range g.geoms {
			if g.geoms[i].touch(blk, want, dirty, k, g.assoc) {
				break // at the front here, so in every larger member too
			}
		}
	}
}

// touch moves block blk (tag word want) to the front of its set, allocating
// it on a miss. It reports whether the block was already at the front, and
// dirty already if dirty is set: then the set is unchanged, and by
// inclusion so is every larger member's.
func (m *sweepGeom) touch(blk, want, dirty uint64, k int, assoc uint64) bool {
	base := (blk & m.setMask) * assoc
	set := m.words[base : base+assoc : base+assoc]
	for i, w := range set {
		if w&^2 == want {
			if i == 0 && w|dirty == w {
				return true
			}
			for ; i > 0; i-- {
				set[i] = set[i-1]
			}
			set[0] = w | dirty
			return false
		}
	}
	m.miss[k&3]++
	n := len(set) - 1
	if victim := set[n]; victim&1 != 0 {
		m.evictions++
		m.dirtyEvictions += victim >> 1 & 1
	}
	for ; n > 0; n-- {
		set[n] = set[n-1]
	}
	set[0] = want | dirty
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
			m := &g.geoms[i]
			m.miss, m.evictions, m.dirtyEvictions = [4]uint64{}, 0, 0
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
		Evictions: m.evictions, DirtyEvictions: m.dirtyEvictions,
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
