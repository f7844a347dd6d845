// Package cache implements the set-associative cache core used throughout
// the memory-system simulator, plus a one-pass multi-configuration sweeper
// (the stand-in for the Sumo cache simulator the paper used with Simics).
//
// A Cache is a purely structural model: tags, ways, LRU, and an opaque
// three-bit per-line state, packed into one word per way. The coherence
// protocol (internal/coherence) and the hierarchy assembly (internal/memsys)
// decide what states mean and when to allocate or invalidate. The
// uniprocessor Sweep does not use Cache: it keeps its own compact
// move-to-front tag arrays (see Sweep).
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// State is an opaque per-line coherence state. The cache package only
// distinguishes StateInvalid (line absent); the valid values, 1 to 7, belong
// to the protocol layer.
type State uint8

// StateInvalid marks an absent line. Protocols must use non-zero values for
// valid states.
const StateInvalid State = 0

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

// String renders the geometry compactly, e.g. "L2 1MB/4way/64B".
func (c Config) String() string {
	return fmt.Sprintf("%s %dKB/%dway/%dB", c.Name, c.SizeBytes/1024, c.Assoc, c.BlockBytes)
}

// Line is one way of a cache set packed into a word: the block address in
// the high bits, the dirty bit in bit 3 and the state in bits 0-2. A way whose
// state is StateInvalid is all zero. Read and write it only through its
// methods.
type Line uint64

const (
	stateBits Line = 7
	dirtyBit  Line = 8
	// minBlockBytes keeps a block address's low four bits free for the state
	// and dirty bit.
	minBlockBytes = 16
)

// Tag returns the line's block address.
func (l Line) Tag() uint64 { return uint64(l &^ (stateBits | dirtyBit)) }

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
// StateInvalid. The panic lives in badState so SetState stays inlinable.
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
	Evictions            uint64
	DirtyEvictions       uint64
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
// assoc Lines, one 8-byte word per way, with the valid ways in
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
	Stats      Stats
}

// New builds a cache; it panics on an invalid geometry (geometries are
// static experiment configuration, so an invalid one is a programming bug)
// and on blocks under 16 B, whose addresses leave no room for the state.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.BlockBytes < minBlockBytes {
		panic(fmt.Sprintf("cache %q: block %d B under the %d B minimum: a block address's low 4 bits hold the line state",
			cfg.Name, cfg.BlockBytes, minBlockBytes))
	}
	sets := cfg.Sets()
	return &Cache{
		cfg:        cfg,
		lines:      make([]Line, sets*cfg.Assoc),
		assoc:      uint64(cfg.Assoc),
		setMask:    uint64(sets - 1),
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
	}
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// BlockAddr returns the block-aligned address containing a, in this cache's
// block size.
func (c *Cache) BlockAddr(a mem.Addr) uint64 { return a >> c.blockShift << c.blockShift }

// set returns the ways of block ba's set. The full-slice expression gives
// the compiler the way count, so scans over it carry no bounds checks.
func (c *Cache) set(ba uint64) []Line {
	base := (ba >> c.blockShift & c.setMask) * c.assoc
	return c.lines[base : base+c.assoc : base+c.assoc]
}

// holds reports whether word l is a valid line of block ba. An invalid word
// is zero and ba's low four bits are, so l^ba is 1..15 exactly when the block
// matches and the state is non-zero.
func holds(l Line, ba uint64) bool { return uint64(l)^ba-1 < 15 }

// Probe returns the line holding block ba, or nil. It does not update LRU.
// ba must be block-aligned (a BlockAddr result).
func (c *Cache) Probe(ba uint64) *Line {
	set := c.set(ba)
	for i := range set {
		if holds(set[i], ba) {
			return &set[i]
		}
	}
	return nil
}

// ProbeTouch is Probe plus a most-recently-used update: a hit moves its word
// to the front of the set. It is the hit path of every L1/L2 access.
func (c *Cache) ProbeTouch(ba uint64) *Line {
	set := c.set(ba)
	for i, l := range set {
		if holds(l, ba) {
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
// line and the victim, if any, so callers that need to mark the fresh line
// (Dirty, a state tweak) can do so without paying a second associative
// Probe. The new line is most recently used and clean.
func (c *Cache) Allocate(ba uint64, st State) (l *Line, victim Line, evicted bool) {
	checkState(st)
	set := c.set(ba)
	n := len(set) - 1
	for i, w := range set {
		if w == 0 {
			n = i
			break
		}
	}
	if victim = set[n]; victim != 0 {
		evicted = true
		c.Stats.Evictions++
		if victim.Dirty() {
			c.Stats.DirtyEvictions++
		}
	}
	for ; n > 0; n-- {
		set[n] = set[n-1]
	}
	set[0] = Line(ba) | Line(st)
	return &set[0], victim, evicted
}

// VisitLines calls fn for every valid line, in set/way order. Tests use it
// to compare whole cache contents against their reference models.
func (c *Cache) VisitLines(fn func(l *Line)) {
	for i := range c.lines {
		if c.lines[i] != 0 {
			fn(&c.lines[i])
		}
	}
}

// Invalidate removes block ba if present, returning whether it was dirty.
func (c *Cache) Invalidate(ba uint64) (wasDirty, wasPresent bool) {
	set := c.set(ba)
	for i := range set {
		if holds(set[i], ba) {
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
