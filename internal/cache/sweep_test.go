package cache

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// ref is one sweep input: a FetchRun of run fetches when run is set, else
// an Access when size is 0, else an AccessRange.
type ref struct {
	a    mem.Addr
	size uint64
	run  uint64
	t    mem.AccessType
}

// checkAgainstReference feeds refs to a sweep over cfgs and to one refCache
// per geometry (refAccess), fails on the first geometry whose Stats differ,
// and returns the sweep.
func checkAgainstReference(t testing.TB, cfgs []Config, refs []ref) *Sweep {
	t.Helper()
	sw := NewSweep(cfgs)
	caches := make([]*refCache, len(cfgs))
	for i, cfg := range cfgs {
		caches[i] = newRefCache(cfg)
	}
	for _, r := range refs {
		if r.run > 0 {
			sw.FetchRun(r.a, r.run)
			for _, c := range caches {
				for i := uint64(0); i < r.run; i++ {
					refAccess(c, c.BlockAddr(r.a+i*fetchBlockBytes), mem.IFetch)
				}
			}
			continue
		}
		n := r.size
		if n == 0 {
			sw.AccessRange(r.a, 1, r.t)
			n = 1
		} else {
			sw.AccessRange(r.a, n, r.t)
		}
		for _, c := range caches {
			bs := uint64(c.cfg.BlockBytes)
			for ba := c.BlockAddr(r.a); ba <= c.BlockAddr(r.a+n-1); ba += bs {
				refAccess(c, ba, r.t)
			}
		}
	}
	for i, c := range caches {
		if got := sw.stats(i); got != c.Stats {
			t.Fatalf("%v: sweep %+v, reference %+v", cfgs[i], got, c.Stats)
		}
	}
	return sw
}

// checkInclusion verifies, for every group, the invariants the sweep's
// shortcut rests on: each set holds its valid words first; every block
// resident in a member is resident in each member with more sets, dirty
// there if dirty here; and a block at the front of its set is at the front
// of its set in every larger member.
func (s *Sweep) checkInclusion() error {
	for _, g := range s.groups {
		for i := range g.geoms {
			m := &g.geoms[i]
			for base := uint64(0); base < uint64(len(m.words)); base += g.assoc {
				set := m.words[base : base+g.assoc]
				for j, w := range set {
					if w&1 == 0 {
						for _, rest := range set[j:] {
							if rest != 0 {
								return fmt.Errorf("set %d of member %d has a hole: %x", base/g.assoc, i, set)
							}
						}
						break
					}
					blk := w >> 2
					for k := i + 1; k < len(g.geoms); k++ {
						pos, bw := g.geoms[k].find(blk, g.assoc)
						switch {
						case pos < 0:
							return fmt.Errorf("block %#x in member %d missing from member %d", blk, i, k)
						case w&2 != 0 && bw&2 == 0:
							return fmt.Errorf("block %#x dirty in member %d, clean in member %d", blk, i, k)
						case j == 0 && pos != 0:
							return fmt.Errorf("block %#x at the front in member %d, at way %d in member %d", blk, i, pos, k)
						}
					}
				}
			}
		}
	}
	return nil
}

// find returns blk's way and tag word in the geometry, or -1.
func (m *sweepGeom) find(blk, assoc uint64) (int, uint64) {
	base := (blk & m.setMask) * assoc
	for i, w := range m.words[base : base+assoc] {
		if w&1 != 0 && w>>2 == blk {
			return i, w
		}
	}
	return -1, 0
}

type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 11)
}

// testStreams are the differential and metamorphic inputs: random, sequential,
// set-strided conflict and immediate-repeat streams. Every stream mixes
// reads, writes, fetches and an unknown access type, and single accesses
// with byte ranges of up to a few blocks and with fetch runs of up to 16
// blocks.
func testStreams(n int) []struct {
	name string
	refs []ref
} {
	kinds := []mem.AccessType{mem.Read, mem.Write, mem.IFetch, 7}
	r := lcg(1)
	mk := func(addr func(i int) mem.Addr) []ref {
		out := make([]ref, n)
		for i := range out {
			x := r.next()
			out[i] = ref{a: addr(i), t: kinds[x%4]}
			switch x >> 2 % 4 {
			case 0:
				out[i].size = x >> 4 % 600
			case 1:
				out[i].run = 1 + x>>4%16
			}
		}
		return out
	}
	var prev mem.Addr
	return []struct {
		name string
		refs []ref
	}{
		{"random", mk(func(int) mem.Addr { return r.next() % (4 << 20) })},
		{"sequential", mk(func(i int) mem.Addr { return mem.Addr(i) * 24 })},
		{"conflict", mk(func(int) mem.Addr { return r.next()%40<<16 | r.next()%4<<6 })},
		{"repeat", mk(func(int) mem.Addr {
			if r.next()%3 != 0 {
				return prev
			}
			prev = r.next() % (1 << 20)
			return prev
		})},
	}
}

// referenceGeometries are the size, associativity and block ladders plus
// tiny caches that evict constantly, 1-way, 16-way, 16 B and 256 B blocks,
// and a duplicated geometry.
func referenceGeometries() []Config {
	cfgs := SizeSweepConfigs("S")
	cfgs = append(cfgs, AssocSweepConfigs("A", 256<<10)...)
	cfgs = append(cfgs, BlockSweepConfigs("B", 256<<10)...)
	return append(cfgs,
		Config{Name: "tiny", SizeBytes: 512, Assoc: 2, BlockBytes: 64},
		Config{Name: "tiny", SizeBytes: 256, Assoc: 2, BlockBytes: 64},
		Config{Name: "dm", SizeBytes: 1 << 10, Assoc: 1, BlockBytes: 64},
		Config{Name: "16w", SizeBytes: 4 << 10, Assoc: 16, BlockBytes: 64},
		Config{Name: "16B", SizeBytes: 2 << 10, Assoc: 4, BlockBytes: 16},
		Config{Name: "256B", SizeBytes: 4 << 10, Assoc: 4, BlockBytes: 256},
		Config{Name: "dup", SizeBytes: 256, Assoc: 2, BlockBytes: 64},
	)
}

// TestSweepMatchesReference: the move-to-front sweep, shortcut included,
// reports exactly the Stats of one reference cache per geometry.
func TestSweepMatchesReference(t *testing.T) {
	for _, st := range testStreams(20000) {
		t.Run(st.name, func(t *testing.T) {
			checkAgainstReference(t, referenceGeometries(), st.refs)
		})
	}
}

// TestSweepInclusion: after every access, every block resident in a group
// member is resident in each member with more sets (the invariant the MRU
// shortcut relies on). The geometries are listed out of size order and
// interleave two groups.
func TestSweepInclusion(t *testing.T) {
	var cfgs []Config
	for size := 4 << 10; size >= 256; size >>= 1 {
		cfgs = append(cfgs,
			Config{Name: "2w", SizeBytes: size, Assoc: 2, BlockBytes: 64},
			Config{Name: "4w", SizeBytes: 8 << 10 / size * 256, Assoc: 4, BlockBytes: 32})
	}
	for _, st := range testStreams(3000) {
		sw := NewSweep(cfgs)
		for i, r := range st.refs {
			sw.AccessRange(r.a%(16<<10), r.size+1, r.t)
			if err := sw.checkInclusion(); err != nil {
				t.Fatalf("%s, after access %d: %v", st.name, i, err)
			}
		}
	}
}

// TestMoreWaysNeverMissMore: at a fixed set count, adding ways never
// increases LRU misses (Mattson's stack inclusion), after every access.
func TestMoreWaysNeverMissMore(t *testing.T) {
	const sets, block = 16, 64
	var cfgs []Config
	for assoc := 1; assoc <= 16; assoc <<= 1 {
		cfgs = append(cfgs, Config{Name: "w", SizeBytes: sets * block * assoc, Assoc: assoc, BlockBytes: block})
	}
	for _, st := range testStreams(5000) {
		sw := NewSweep(cfgs)
		for n, r := range st.refs {
			sw.AccessRange(r.a%(64<<10), r.size+1, r.t)
			for i := 1; i < len(cfgs); i++ {
				if more, fewer := sw.stats(i).Misses(), sw.stats(i-1).Misses(); more > fewer {
					t.Fatalf("%s, after access %d: %d ways miss %d times, %d ways %d",
						st.name, n, cfgs[i].Assoc, more, cfgs[i-1].Assoc, fewer)
				}
			}
		}
	}
}
