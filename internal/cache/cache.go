// Package cache implements the set-associative cache core used throughout
// the memory-system simulator, plus a one-pass multi-configuration sweeper
// (the stand-in for the Sumo cache simulator the paper used with Simics).
//
// A Cache is a purely structural model: tags, ways, LRU, and an opaque
// per-line state byte. The coherence protocol (internal/coherence) and the
// hierarchy assembly (internal/memsys) decide what states mean and when to
// allocate or invalidate. The uniprocessor Sweep does not use Cache: it keeps
// its own compact move-to-front tag arrays (see Sweep).
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// State is an opaque per-line coherence state. The cache package only
// distinguishes StateInvalid (line absent); all other values belong to the
// protocol layer.
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

// Line is one cache line's bookkeeping. Recency lives in the cache's
// parallel lru array rather than here, so a probe hit touches only the
// compact tag/lru arrays and never dirties the Line itself.
type Line struct {
	Tag uint64 // block address (already shifted)
	// State may be rewritten by callers (the coherence protocol does), but
	// only between valid states: invalidation must go through Invalidate so
	// the cache's internal tag mirror stays exact.
	State State
	Dirty bool
}

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

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	cfg  Config
	sets []Line // flat: sets[set*assoc : (set+1)*assoc]
	// tags mirrors sets for the probe scan: tags[i] is sets[i].Tag|1 while
	// the way is valid, 0 while invalid. A probe touches 8 bytes per way
	// instead of a full Line, so even a 4-way set's tags share one machine
	// cache line. Validity only ever changes inside this package (Allocate
	// and Invalidate), which is what keeps the mirror exact: callers adjust
	// Line.State freely but only between valid states.
	tags []uint64
	// lru holds each way's last-use clock, parallel to sets/tags. Keeping
	// recency out of Line means the replacement scan in Allocate reads two
	// dense uint64 arrays (tags for validity, lru for age) instead of
	// walking Line structs.
	lru        []uint64
	assoc      int
	setMask    uint64
	blockShift uint
	clock      uint64
	Stats      Stats
}

// New builds a cache; it panics on an invalid geometry (geometries are
// static experiment configuration, so an invalid one is a programming bug).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	return &Cache{
		cfg:        cfg,
		sets:       make([]Line, sets*cfg.Assoc),
		tags:       make([]uint64, sets*cfg.Assoc),
		lru:        make([]uint64, sets*cfg.Assoc),
		assoc:      cfg.Assoc,
		setMask:    uint64(sets - 1),
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
	}
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// BlockAddr returns the block-aligned address containing a, in this cache's
// block size.
func (c *Cache) BlockAddr(a mem.Addr) uint64 { return a >> c.blockShift << c.blockShift }

// Probe returns the line holding block ba, or nil. It does not update LRU.
// ba must be block-aligned (a BlockAddr result), which leaves bit 0 free for
// the tag array's valid marker. The common associativities are unrolled:
// the probe is the single hottest operation in the simulator.
func (c *Cache) Probe(ba uint64) *Line {
	base := (ba >> c.blockShift & c.setMask) * uint64(c.assoc)
	want := ba | 1
	switch c.assoc {
	case 2:
		t := c.tags[base : base+2 : base+2]
		if t[0] == want {
			return &c.sets[base]
		}
		if t[1] == want {
			return &c.sets[base+1]
		}
		return nil
	case 4:
		t := c.tags[base : base+4 : base+4]
		if t[0] == want {
			return &c.sets[base]
		}
		if t[1] == want {
			return &c.sets[base+1]
		}
		if t[2] == want {
			return &c.sets[base+2]
		}
		if t[3] == want {
			return &c.sets[base+3]
		}
		return nil
	}
	tags := c.tags[base : base+uint64(c.assoc)]
	for i := range tags {
		if tags[i] == want {
			return &c.sets[base+uint64(i)]
		}
	}
	return nil
}

// ProbeTouch is Probe plus a most-recently-used update in one associative
// scan — the hit path of every L1/L2 access. On a hit only the tag and lru
// arrays are touched; the Line itself stays untouched unless the caller
// dereferences the returned pointer.
func (c *Cache) ProbeTouch(ba uint64) *Line {
	base := (ba >> c.blockShift & c.setMask) * uint64(c.assoc)
	want := ba | 1
	// Full-slice expressions give the compiler the way count, so the
	// per-way tag compares below carry no bounds checks.
	switch c.assoc {
	case 2:
		t := c.tags[base : base+2 : base+2]
		if t[0] == want {
			c.clock++
			c.lru[base] = c.clock
			return &c.sets[base]
		}
		if t[1] == want {
			c.clock++
			c.lru[base+1] = c.clock
			return &c.sets[base+1]
		}
		return nil
	case 4:
		t := c.tags[base : base+4 : base+4]
		if t[0] == want {
			c.clock++
			c.lru[base] = c.clock
			return &c.sets[base]
		}
		if t[1] == want {
			c.clock++
			c.lru[base+1] = c.clock
			return &c.sets[base+1]
		}
		if t[2] == want {
			c.clock++
			c.lru[base+2] = c.clock
			return &c.sets[base+2]
		}
		if t[3] == want {
			c.clock++
			c.lru[base+3] = c.clock
			return &c.sets[base+3]
		}
		return nil
	}
	tags := c.tags[base : base+uint64(c.assoc)]
	for i := range tags {
		if tags[i] == want {
			j := base + uint64(i)
			c.clock++
			c.lru[j] = c.clock
			return &c.sets[j]
		}
	}
	return nil
}

// Victim describes a line evicted by Allocate.
type Victim struct {
	Tag   uint64
	State State
	Dirty bool
}

// Allocate inserts block ba with the given state, evicting the LRU way if
// the set is full. It returns the inserted line and the victim, if any, so
// callers that need to mark the fresh line (Dirty, a state tweak) can do so
// without paying a second associative Probe. The new line is marked most
// recently used and clean.
func (c *Cache) Allocate(ba uint64, st State) (*Line, Victim, bool) {
	if st == StateInvalid {
		panic("cache: Allocate with StateInvalid")
	}
	base := (ba >> c.blockShift & c.setMask) * uint64(c.assoc)
	// The victim scan runs over the dense tag mirror (0 = invalid way) and
	// the lru array, so a full set costs 2×assoc adjacent uint64 reads
	// instead of walking Line structs.
	tags := c.tags[base : base+uint64(c.assoc)]
	lru := c.lru[base : base+uint64(c.assoc)]
	victimIdx := 0
	var victim Victim
	hadVictim := false
	found := false
	for i := range tags {
		if tags[i] == 0 {
			victimIdx = i
			found = true
			break
		}
		if lru[i] < lru[victimIdx] {
			victimIdx = i
		}
	}
	ways := c.sets[base : base+uint64(c.assoc)]
	if !found {
		v := &ways[victimIdx]
		victim = Victim{Tag: v.Tag, State: v.State, Dirty: v.Dirty}
		hadVictim = true
		c.Stats.Evictions++
		if v.Dirty {
			c.Stats.DirtyEvictions++
		}
	}
	c.clock++
	ways[victimIdx] = Line{Tag: ba, State: st}
	lru[victimIdx] = c.clock
	c.tags[base+uint64(victimIdx)] = ba | 1
	return &ways[victimIdx], victim, hadVictim
}

// VisitLines calls fn for every valid line, in set/way order. Bus-side
// indexes (the coherence snoop filter) use it to rebuild from contents.
func (c *Cache) VisitLines(fn func(l *Line)) {
	for i := range c.sets {
		if c.sets[i].State != StateInvalid {
			fn(&c.sets[i])
		}
	}
}

// Invalidate removes block ba if present, returning whether it was dirty.
func (c *Cache) Invalidate(ba uint64) (wasDirty, wasPresent bool) {
	base := (ba >> c.blockShift & c.setMask) * uint64(c.assoc)
	want := ba | 1
	for i := base; i < base+uint64(c.assoc); i++ {
		if c.tags[i] == want {
			wasDirty = c.sets[i].Dirty
			c.sets[i] = Line{}
			c.tags[i] = 0
			c.lru[i] = 0
			return wasDirty, true
		}
	}
	return false, false
}

// ResetStats zeroes the counters without disturbing cache contents, so a
// warm-up phase can be excluded from measurement — the paper reports
// steady-state intervals only.
func (c *Cache) ResetStats() { c.Stats = Stats{} }
