package cache

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/mem"
)

// refCache is the reference model Cache and Sweep are checked against: a
// set-associative cache with true LRU kept as per-way last-use clock stamps,
// the layout Cache had before it packed each way into one MRU-first word.
// It shares no code with either, so a bug in the packed layout cannot hide in
// its own reference.
type refCache struct {
	cfg        Config
	ways       []refLine // flat: ways[set*assoc : (set+1)*assoc]
	assoc      int
	setMask    uint64
	blockShift uint
	clock      uint64
	Stats      Stats
}

type refLine struct {
	Tag   uint64
	State State
	Dirty bool
	lru   uint64
}

func newRefCache(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &refCache{
		cfg:        cfg,
		ways:       make([]refLine, cfg.Sets()*cfg.Assoc),
		assoc:      cfg.Assoc,
		setMask:    uint64(cfg.Sets() - 1),
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
	}
}

func (c *refCache) BlockAddr(a uint64) uint64 { return a >> c.blockShift << c.blockShift }

func (c *refCache) set(ba uint64) []refLine {
	base := int(ba>>c.blockShift&c.setMask) * c.assoc
	return c.ways[base : base+c.assoc]
}

// Probe returns the way holding block ba, or nil, without touching LRU.
func (c *refCache) Probe(ba uint64) *refLine {
	set := c.set(ba)
	for i := range set {
		if set[i].State != 0 && set[i].Tag == ba {
			return &set[i]
		}
	}
	return nil
}

// ProbeTouch is Probe that also stamps a hit most recently used.
func (c *refCache) ProbeTouch(ba uint64) *refLine {
	l := c.Probe(ba)
	if l != nil {
		c.clock++
		l.lru = c.clock
	}
	return l
}

// Allocate fills the lowest-numbered invalid way, or else evicts the way with
// the oldest stamp, and returns the new way and the victim.
func (c *refCache) Allocate(ba uint64, st State) (*refLine, refLine, bool) {
	set := c.set(ba)
	v := 0
	for i := range set {
		if set[i].State == 0 {
			v = -1 - i
			break
		}
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	var victim refLine
	evicted := v >= 0
	if evicted {
		victim = set[v]
	} else {
		v = -1 - v
	}
	c.clock++
	set[v] = refLine{Tag: ba, State: st, lru: c.clock}
	return &set[v], victim, evicted
}

// Invalidate removes block ba if present, returning whether it was dirty.
func (c *refCache) Invalidate(ba uint64) (wasDirty, wasPresent bool) {
	if l := c.Probe(ba); l != nil {
		wasDirty = l.Dirty
		*l = refLine{}
		return wasDirty, true
	}
	return false, false
}

// resident lists the valid lines as "tag state dirty", sorted, for comparing
// contents whatever way each line sits in.
func (c *refCache) resident() []string {
	var out []string
	for _, l := range c.ways {
		if l.State != 0 {
			out = append(out, fmt.Sprintf("%#x %d %v", l.Tag, l.State, l.Dirty))
		}
	}
	sort.Strings(out)
	return out
}

// resident lists c's valid lines like refCache.resident, each block address
// rebuilt from its tag and the set the line sits in.
func resident(c *Cache) []string {
	var out []string
	for i, l := range c.lines {
		if l != 0 {
			out = append(out, fmt.Sprintf("%#x %d %v", c.block(l, uint64(i)/c.assoc), l.State(), l.Dirty()))
		}
	}
	sort.Strings(out)
	return out
}

// lineBlock returns the block address of *l, a valid line of c.
func lineBlock(c *Cache, l *Line) uint64 {
	for i := range c.lines {
		if &c.lines[i] == l {
			return c.block(*l, uint64(i)/c.assoc)
		}
	}
	panic("cache: line not in this cache")
}

// modelGeometries cover associativity 1 to 16 at 16 B and 64 B blocks, each
// with four sets so a short stream keeps every set full and evicting.
func modelGeometries() []Config {
	var cfgs []Config
	for _, block := range []int{16, 64} {
		for assoc := 1; assoc <= 16; assoc <<= 1 {
			cfgs = append(cfgs, Config{Name: "m", SizeBytes: 4 * assoc * block, Assoc: assoc, BlockBytes: block})
		}
	}
	return cfgs
}

// checkCacheAgainstReference decodes ops two bytes at a time and applies each
// to a Cache and a refCache of the same geometry. The low three bits of the
// first byte pick the operation (Probe, ProbeTouch twice, Allocate twice,
// Invalidate, SetState, SetDirty) and its upper bits the state or dirty value;
// the second byte picks the block from three times the cache's capacity, with
// its top bit setting the geometry's highest tag bit. After every operation
// the results, the Stats and the resident lines must agree.
func checkCacheAgainstReference(t testing.TB, cfg Config, ops []byte) {
	t.Helper()
	c, r := New(cfg), newRefCache(cfg)
	span := uint64(3 * cfg.Assoc * cfg.Sets())
	same := func(l *Line, rl *refLine) bool {
		if l == nil || rl == nil {
			return l == nil && rl == nil
		}
		return lineBlock(c, l) == rl.Tag && l.State() == rl.State && l.Dirty() == rl.Dirty
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg, sel := ops[i]&7, ops[i]>>3, uint64(ops[i+1])
		ba := sel & 0x7f % span * uint64(cfg.BlockBytes)
		if sel&0x80 != 0 {
			ba |= 1 << (c.tagShift + 31 - lineTagShift)
		}
		st := State(arg%7 + 1)
		var what string
		switch op {
		case 0:
			what = fmt.Sprintf("Probe(%#x)", ba)
			if !same(c.Probe(ba), r.Probe(ba)) {
				t.Fatalf("%v: op %d: %s disagrees", cfg, i/2, what)
			}
		case 1, 2:
			what = fmt.Sprintf("ProbeTouch(%#x)", ba)
			if !same(c.ProbeTouch(ba), r.ProbeTouch(ba)) {
				t.Fatalf("%v: op %d: %s disagrees", cfg, i/2, what)
			}
		case 3, 4:
			// Every caller allocates only a block it just missed on.
			what = fmt.Sprintf("Allocate(%#x, %d)", ba, st)
			if r.Probe(ba) != nil {
				continue
			}
			l, v, vba := c.Allocate(ba, st)
			rl, rv, rev := r.Allocate(ba, st)
			if !same(l, rl) || (v != 0) != rev || vba != rv.Tag || v.State() != rv.State || v.Dirty() != rv.Dirty {
				t.Fatalf("%v: op %d: %s: line %#x victim %#x block %#x, reference %+v victim %+v %v",
					cfg, i/2, what, *l, v, vba, *rl, rv, rev)
			}
		case 5:
			what = fmt.Sprintf("Invalidate(%#x)", ba)
			d, p := c.Invalidate(ba)
			if rd, rp := r.Invalidate(ba); d != rd || p != rp {
				t.Fatalf("%v: op %d: %s = %v %v, reference %v %v", cfg, i/2, what, d, p, rd, rp)
			}
		case 6:
			what = fmt.Sprintf("SetState(%#x, %d)", ba, st)
			if l, rl := c.Probe(ba), r.Probe(ba); l != nil && rl != nil {
				l.SetState(st)
				rl.State = st
			}
		case 7:
			what = fmt.Sprintf("SetDirty(%#x, %v)", ba, arg&1 != 0)
			if l, rl := c.Probe(ba), r.Probe(ba); l != nil && rl != nil {
				l.SetDirty(arg&1 != 0)
				rl.Dirty = arg&1 != 0
			}
		}
		if c.Stats != r.Stats {
			t.Fatalf("%v: op %d: after %s Stats %+v, reference %+v", cfg, i/2, what, c.Stats, r.Stats)
		}
		if got, want := fmt.Sprint(resident(c)), fmt.Sprint(r.resident()); got != want {
			t.Fatalf("%v: op %d: after %s resident %s, reference %s", cfg, i/2, what, got, want)
		}
	}
}

// TestCacheMatchesReference: on random operation streams, Cache reports the
// same hits, victims, Stats and contents as the clock-stamped reference.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range modelGeometries() {
		r := lcg(cfg.Assoc*100 + cfg.BlockBytes)
		ops := make([]byte, 8000)
		for i := range ops {
			ops[i] = byte(r.next())
		}
		checkCacheAgainstReference(t, cfg, ops)
	}
}

// FuzzCacheMatchesReference is TestCacheMatchesReference on arbitrary input:
// the first byte picks the geometry, the rest are operations.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{2, 4, 0, 4, 1, 4, 2, 4, 3, 4, 4, 2, 0, 5, 0})
	f.Add([]byte{5, 4, 0x80, 4, 0, 7, 0x80, 2, 0, 4, 4, 12, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfgs := modelGeometries()
		checkCacheAgainstReference(t, cfgs[int(data[0])%len(cfgs)], data[1:])
	})
}

// refAccess is the reference model the sweep is checked against: one
// uniprocessor write-back, write-allocate access (ProbeTouch, then Allocate
// on a miss, then Dirty on a write). It counts the access in c.Stats by type,
// an unknown type nowhere, and reports whether it hit.
func refAccess(c *refCache, a mem.Addr, t mem.AccessType) bool {
	var acc, miss *uint64
	switch t {
	case mem.Read:
		acc, miss = &c.Stats.Reads, &c.Stats.ReadMisses
	case mem.Write:
		acc, miss = &c.Stats.Writes, &c.Stats.WriteMisses
	case mem.IFetch:
		acc, miss = &c.Stats.Fetches, &c.Stats.FetchMisses
	}
	if acc != nil {
		*acc++
	}
	ba := c.BlockAddr(a)
	l := c.ProbeTouch(ba)
	hit := l != nil
	if !hit {
		if miss != nil {
			*miss++
		}
		l, _, _ = c.Allocate(ba, 1)
	}
	if t == mem.Write {
		l.Dirty = true
	}
	return hit
}
