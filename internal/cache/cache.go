// Package cache implements the set-associative cache core used throughout
// the memory-system simulator, plus a one-pass multi-configuration sweeper
// (the stand-in for the Sumo cache simulator the paper used with Simics).
//
// A Cache is a purely structural model: tags, ways, LRU, and an opaque
// three-bit per-line state, packed into one 4-byte word per way. The
// coherence protocol (internal/coherence) and the hierarchy assembly
// (internal/memsys) decide what states mean and when to allocate or
// invalidate. The uniprocessor Sweep does not use Cache: it keeps its own
// compact move-to-front tag arrays (see Sweep), also 4 bytes per way.
//
// Both store only a block's tag, the address bits above the set index, so a
// word is 4 bytes whatever the address width. A geometry therefore covers
// addresses below a bound: 2^28 tags per set in a Cache and 2^31 in a Sweep,
// 2^41 bytes for a 16 KB 2-way cache of 64 B blocks and more for any larger
// one. A Cache panics when asked to store a block at or above its bound, and
// a probe for one matches nothing; a Sweep panics on any reference to one.
// Either way no block aliases another.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// State is an opaque per-line coherence state. The cache package only
// distinguishes state 0, an absent line; the valid values, 1 to 7, belong to
// the protocol layer.
type State uint8

// Config describes one cache geometry.
type Config struct {
	Name       string
	SizeBytes  int
	Assoc      int
	BlockBytes int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Assoc * c.BlockBytes) }

// Validate checks that the geometry is internally consistent: positive
// power-of-two size and block, associativity that divides into whole sets.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache %q: size %d not a positive power of two", c.Name, c.SizeBytes)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache %q: block %d not a positive power of two", c.Name, c.BlockBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("cache %q: associativity %d not positive", c.Name, c.Assoc)
	case c.SizeBytes < c.Assoc*c.BlockBytes:
		return fmt.Errorf("cache %q: size %d smaller than one set (%d ways × %d B)", c.Name, c.SizeBytes, c.Assoc, c.BlockBytes)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("cache %q: %d sets not a power of two", c.Name, c.Sets())
	}
	return nil
}

// String renders the geometry compactly, e.g. "L2 1024KB/4way/64B", or in
// bytes for a size under 1 KB, e.g. "tiny 512B/2way/64B".
func (c Config) String() string {
	size := fmt.Sprintf("%dKB", c.SizeBytes/1024)
	if c.SizeBytes < 1024 {
		size = fmt.Sprintf("%dB", c.SizeBytes)
	}
	return fmt.Sprintf("%s %s/%dway/%dB", c.Name, size, c.Assoc, c.BlockBytes)
}

// Line is one way of a cache set packed into a 4-byte word: the block's tag
// (its address above the set index and block offset) from bit 4 up, the
// dirty bit in bit 3 and the state in bits 0-2. A way whose state is 0 is
// all zero. Read and write it only through its methods.
type Line uint32

const (
	stateBits Line = 7
	dirtyBit  Line = 8
	// lineTagShift is the tag's position in a Line, above the state and
	// dirty bit; maxTag is the largest tag the word holds, and maxKey that
	// tag in place.
	lineTagShift        = 4
	maxTag       uint64 = 1<<(32-lineTagShift) - 1
	maxKey              = maxTag << lineTagShift
)

// State returns the line's state.
func (l Line) State() State { return State(l & stateBits) }

// Dirty reports whether the line is dirty.
func (l Line) Dirty() bool { return l&dirtyBit != 0 }

// SetState moves a valid line to another valid state, 1 to 7. A line leaves
// the cache only through Invalidate or eviction, which clear its whole word.
func (l *Line) SetState(st State) {
	checkState(st)
	*l = *l&^stateBits | Line(st)
}

// SetDirty sets or clears the line's dirty bit.
func (l *Line) SetDirty(d bool) {
	if d {
		*l |= dirtyBit
	} else {
		*l &^= dirtyBit
	}
}

// checkState panics unless st is a valid state, 1 to 7; st-1 wraps past 6 for
// state 0. The panic lives in badState so SetState stays inlinable.
func checkState(st State) {
	if st-1 >= State(stateBits) {
		badState(st)
	}
}

//go:noinline
func badState(st State) { panic(fmt.Sprintf("cache: state %d outside 1..%d", st, stateBits)) }

// Stats counts cache events. Hits/misses are split by access type.
type Stats struct {
	Reads, ReadMisses    uint64
	Writes, WriteMisses  uint64
	Fetches, FetchMisses uint64
}

// Accesses returns the total access count.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes + s.Fetches }

// Misses returns the total miss count.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses + s.FetchMisses }

// MissRatio returns misses/accesses, or 0 with no accesses.
func (s Stats) MissRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(a)
}

// Cache is a set-associative cache with true-LRU replacement. Each set is
// assoc Lines, one 4-byte word per way, with the valid ways in
// most-recently-used-first order: a hit moves its word to the front, Allocate
// shifts the set right from its first invalid way (or its last way, the LRU
// victim, when the set is full) and puts the new word at the front, and
// Invalidate clears a word in place. A probe reads one contiguous run of
// words, and no clock is kept.
//
// A *Line returned by Probe, ProbeTouch or Allocate stays valid until the
// next ProbeTouch or Allocate on the same set, which may shift it to another
// way. Invalidate moves no other word, so a pointer survives invalidations of
// other blocks.
type Cache struct {
	cfg        Config
	lines      []Line // flat: lines[set*assoc : (set+1)*assoc]
	assoc      uint64
	setMask    uint64
	blockShift uint
	tagShift   uint // blockShift plus the set-index width: a block's tag is ba >> tagShift
	Stats      Stats
}

// New builds a cache; it panics on an invalid geometry (geometries are
// static experiment configuration, so an invalid one is a programming bug).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	blockShift := uint(bits.TrailingZeros(uint(cfg.BlockBytes)))
	return &Cache{
		cfg:        cfg,
		lines:      make([]Line, sets*cfg.Assoc),
		assoc:      uint64(cfg.Assoc),
		setMask:    uint64(sets - 1),
		blockShift: blockShift,
		tagShift:   blockShift + uint(bits.TrailingZeros(uint(sets))),
	}
}

// BlockAddr returns the block-aligned address containing a, in this cache's
// block size.
func (c *Cache) BlockAddr(a mem.Addr) uint64 { return a >> c.blockShift << c.blockShift }

// locate returns block ba's set and its key: ba's tag shifted into place,
// the word of a line of ba with the state and dirty bit clear. The full-slice
// expression gives the compiler the way count, so scans over the set carry no
// bounds checks, and masking each shift count to 6 bits spares it the fixup
// for counts of 64 and more. A key keeps all 64 bits, so the key of a block
// whose tag does not fit a Line matches no line; Allocate refuses to store
// one.
func (c *Cache) locate(ba uint64) ([]Line, uint64) {
	base := (ba >> (c.blockShift & 63) & c.setMask) * c.assoc
	return c.lines[base : base+c.assoc : base+c.assoc], ba >> (c.tagShift & 63) << lineTagShift
}

// holds reports whether word l is a valid line with key key. An invalid word
// is zero and a key's low four bits are, so l^key is 1..15 exactly when the
// tags match and the state is non-zero.
func holds(l Line, key uint64) bool { return uint64(l)^key-1 < 15 }

// block rebuilds the block address of word l, a valid line of set set.
func (c *Cache) block(l Line, set uint64) uint64 {
	return uint64(l>>lineTagShift)<<(c.tagShift&63) | set<<(c.blockShift&63)
}

// Probe returns the line holding block ba, or nil. It does not update LRU.
// ba must be block-aligned (a BlockAddr result).
func (c *Cache) Probe(ba uint64) *Line {
	set, key := c.locate(ba)
	for i := range set {
		if holds(set[i], key) {
			return &set[i]
		}
	}
	return nil
}

// ProbeTouch is Probe plus a most-recently-used update: a hit moves its word
// to the front of the set. It is the hit path of every L1/L2 access.
func (c *Cache) ProbeTouch(ba uint64) *Line {
	set, key := c.locate(ba)
	for i, l := range set {
		if holds(l, key) {
			for ; i > 0; i-- {
				set[i] = set[i-1]
			}
			set[0] = l
			return &set[0]
		}
	}
	return nil
}

// Allocate inserts block ba, which must not be resident, with the given
// state, evicting the LRU way if the set is full. It returns the inserted
// line, so callers that need to mark the fresh line (Dirty, a state tweak)
// can do so without paying a second associative Probe, and the victim: its
// word, zero when the set had a free way, and its block address, rebuilt from
// the set it was evicted from. The new line is most recently used and clean.
func (c *Cache) Allocate(ba uint64, st State) (l *Line, victim Line, victimBA uint64) {
	checkState(st)
	set, key := c.locate(ba)
	if key > maxKey {
		c.tagOverflow(ba)
	}
	n := len(set) - 1
	for i, w := range set {
		if w == 0 {
			n = i
			break
		}
	}
	if victim = set[n]; victim != 0 {
		victimBA = c.block(victim, ba>>(c.blockShift&63)&c.setMask)
	}
	for ; n > 0; n-- {
		set[n] = set[n-1]
	}
	set[0] = Line(key) | Line(st)
	return &set[0], victim, victimBA
}

// tagOverflow panics on a block whose tag does not fit a Line, rather than
// let its truncated tag alias another block.
//
//go:noinline
func (c *Cache) tagOverflow(ba uint64) {
	panic(fmt.Sprintf("cache %v: block %#x at or above the tag bound %#x",
		c.cfg, ba, (maxTag+1)<<c.tagShift))
}

// Invalidate removes block ba if present, returning whether it was dirty.
func (c *Cache) Invalidate(ba uint64) (wasDirty, wasPresent bool) {
	set, key := c.locate(ba)
	for i := range set {
		if holds(set[i], key) {
			wasDirty = set[i].Dirty()
			set[i] = 0
			return wasDirty, true
		}
	}
	return false, false
}

// ResetStats zeroes the counters without disturbing cache contents, so a
// warm-up phase can be excluded from measurement — the paper reports
// steady-state intervals only.
func (c *Cache) ResetStats() { c.Stats = Stats{} }
