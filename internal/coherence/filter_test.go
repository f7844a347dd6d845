package coherence

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/simrand"
	"repro/internal/stats"
)

// The snoop-filter equivalence suite: a filtered bus and a brute-force bus
// are driven with identical randomized traffic and must agree on every
// observable — transaction counters, per-line communication profile, C2C
// timeline, invalidation callbacks, and the final state/dirty bit of every
// block in every cache. The duplicate-tag filter is an optimization, never
// a behavior change.

type busPair struct {
	filtered, brute *Bus
	fNodes, bNodes  []*Node
	fInv, bInv      []int // invalidation-callback counts per node
}

func newBusPair(t *testing.T, proto Protocol, nodes int, geo cache.Config) *busPair {
	t.Helper()
	if bruteSnoopEnv {
		t.Skip("COHERENCE_BRUTE_SNOOP=1: both buses would be brute-force, nothing to compare")
	}
	p := &busPair{
		filtered: NewBus(), brute: NewBus(),
		fInv: make([]int, nodes), bInv: make([]int, nodes),
	}
	p.filtered.Protocol = proto
	p.brute.Protocol = proto
	p.brute.DisableSnoopFilter()
	p.filtered.EnableProfile()
	p.brute.EnableProfile()
	p.filtered.EnableTimeline(1000)
	p.brute.EnableTimeline(1000)
	for i := 0; i < nodes; i++ {
		i := i
		p.fNodes = append(p.fNodes, p.filtered.AddNode(cache.New(geo), func(ba uint64) { p.fInv[i]++ }))
		p.bNodes = append(p.bNodes, p.brute.AddNode(cache.New(geo), func(ba uint64) { p.bInv[i]++ }))
	}
	if !p.filtered.SnoopFilterEnabled() {
		t.Fatal("filtered bus did not enable its snoop filter")
	}
	if p.brute.SnoopFilterEnabled() {
		t.Fatal("DisableSnoopFilter left the filter on")
	}
	return p
}

// run drives both buses with the same seeded traffic: a mix of mostly-read
// and write-heavy blocks across a working set several times the cache size,
// so the stream exercises GetS, GetM, upgrades, evictions of all states,
// and wide read-sharing.
func (p *busPair) run(t *testing.T, seed uint64, accesses int) {
	t.Helper()
	rng := simrand.New(seed)
	nodes := len(p.fNodes)
	geo := p.fNodes[0].l2.Config()
	blocks := uint64(geo.SizeBytes) / uint64(geo.BlockBytes) * 3
	for i := 0; i < accesses; i++ {
		n := rng.Intn(nodes)
		ba := uint64(rng.Int63n(int64(blocks))) * uint64(geo.BlockBytes)
		write := rng.Bool(0.3)
		now := uint64(i)
		if write {
			fs := p.fNodes[n].Write(mem.Addr(ba), now)
			bs := p.bNodes[n].Write(mem.Addr(ba), now)
			if fs != bs {
				t.Fatalf("access %d: Write(%#x) by node %d: filtered src %v, brute src %v", i, ba, n, fs, bs)
			}
		} else {
			fs := p.fNodes[n].Read(mem.Addr(ba), now)
			bs := p.bNodes[n].Read(mem.Addr(ba), now)
			if fs != bs {
				t.Fatalf("access %d: Read(%#x) by node %d: filtered src %v, brute src %v", i, ba, n, fs, bs)
			}
		}
	}
}

func sameShareDist(a, b *stats.ShareDist) bool {
	if a.Keys() != b.Keys() || a.Total() != b.Total() {
		return false
	}
	ac, bc := a.SortedCounts(), b.SortedCounts()
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	return true
}

func (p *busPair) verify(t *testing.T) {
	t.Helper()
	if p.filtered.Stats != p.brute.Stats {
		t.Errorf("stats diverge:\nfiltered %+v\nbrute    %+v", p.filtered.Stats, p.brute.Stats)
	}
	if !sameShareDist(p.filtered.Profile(), p.brute.Profile()) {
		t.Error("per-line communication profiles diverge")
	}
	fb, bb := p.filtered.Timeline().Bins(), p.brute.Timeline().Bins()
	if len(fb) != len(bb) {
		t.Fatalf("timeline bin counts diverge: %d vs %d", len(fb), len(bb))
	}
	for i := range fb {
		if fb[i] != bb[i] {
			t.Errorf("timeline bin %d diverges: %v vs %v", i, fb[i], bb[i])
		}
	}
	for i := range p.fInv {
		if p.fInv[i] != p.bInv[i] {
			t.Errorf("node %d invalidation callbacks diverge: %d vs %d", i, p.fInv[i], p.bInv[i])
		}
	}
	// Final contents: every block present in one bus's node must be present
	// in the other's with the same state and dirty bit.
	for i := range p.fNodes {
		fl := map[uint64]cache.Line{}
		p.fNodes[i].l2.VisitLines(func(l *cache.Line) { fl[l.Tag()] = *l })
		n := 0
		p.bNodes[i].l2.VisitLines(func(l *cache.Line) {
			n++
			got, ok := fl[l.Tag()]
			if !ok {
				t.Errorf("node %d: block %#x in brute cache only", i, l.Tag())
				return
			}
			if got.State() != l.State() || got.Dirty() != l.Dirty() {
				t.Errorf("node %d block %#x: filtered (%s dirty=%v) vs brute (%s dirty=%v)",
					i, l.Tag(), StateName(got.State()), got.Dirty(), StateName(l.State()), l.Dirty())
			}
		})
		if n != len(fl) {
			t.Errorf("node %d: filtered cache holds %d blocks, brute holds %d", i, len(fl), n)
		}
	}
}

func TestSnoopFilterEquivalence(t *testing.T) {
	geos := []cache.Config{
		{Name: "L2", SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 64},
		{Name: "L2", SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 32},
	}
	for _, proto := range []Protocol{MOSI, MSI, MESI} {
		for _, nodes := range []int{2, 4, 8} {
			for gi, geo := range geos {
				t.Run(fmt.Sprintf("%v/%dnodes/geo%d", proto, nodes, gi), func(t *testing.T) {
					p := newBusPair(t, proto, nodes, geo)
					p.run(t, uint64(0xF117E4+nodes+gi), 60000)
					p.verify(t)
				})
			}
		}
	}
}

// TestSnoopFilterRebuild checks that a bus whose caches were mutated behind
// the filter's back can resynchronize with RebuildSnoopFilter.
func TestSnoopFilterRebuild(t *testing.T) {
	if bruteSnoopEnv {
		t.Skip("COHERENCE_BRUTE_SNOOP=1 disables the filter under test")
	}
	b := NewBus()
	geo := cache.Config{Name: "L2", SizeBytes: 16 << 10, Assoc: 2, BlockBytes: 64}
	a := b.AddNode(cache.New(geo), nil)
	c := b.AddNode(cache.New(geo), nil)
	a.Write(0x1000, 0)
	// Tamper: plant a copy directly, bypassing the protocol and filter.
	c.l2.Allocate(c.l2.BlockAddr(0x2000), Modified)
	if l := c.l2.Probe(c.l2.BlockAddr(0x2000)); l != nil {
		l.SetDirty(true)
	}
	b.RebuildSnoopFilter()
	b.EnableSanitizer() // cross-checks filter vs probes on every transaction
	if src := a.Read(0x2000, 1); src != SrcCache {
		t.Fatalf("after rebuild, read of planted dirty block: src %v, want %v", src, SrcCache)
	}
}
