package ifetch

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/simrand"
)

func layoutWith(t *testing.T, size uint64, p Profile) (*CodeLayout, *Component) {
	t.Helper()
	l := NewCodeLayout(mem.NewAddrSpace())
	c := l.Add("test", size, false, p)
	return l, c
}

func TestAddRoundsUpAndAssignsIDs(t *testing.T) {
	l := NewCodeLayout(mem.NewAddrSpace())
	a := l.Add("a", 1, false, Profile{})
	b := l.Add("b", 130, true, Profile{})
	if a.Region.Size != BlockBytes {
		t.Fatalf("a size = %d", a.Region.Size)
	}
	if b.Region.Size != 192 {
		t.Fatalf("b size = %d", b.Region.Size)
	}
	if a.ID != 0 || b.ID != 1 {
		t.Fatal("IDs not sequential")
	}
	if !b.Kernel || a.Kernel {
		t.Fatal("kernel flags wrong")
	}
	if l.Component(1) != b || len(l.Components()) != 2 {
		t.Fatal("lookup wrong")
	}
	if l.TotalCodeBytes() != 64+192 {
		t.Fatalf("TotalCodeBytes = %d", l.TotalCodeBytes())
	}
}

func TestInvalidProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := NewCodeLayout(mem.NewAddrSpace())
	l.Add("bad", 1024, false, Profile{Tiers: []Tier{{CodeFrac: 0.5, FetchFrac: 0.5}}})
}

func TestAddressesStayInRegion(t *testing.T) {
	l, c := layoutWith(t, 256<<10, DefaultProfile())
	g := NewGen(l, simrand.New(1))
	for i := 0; i < 100000; i++ {
		a := g.NextBlock(c.ID)
		if !c.Region.Contains(a) {
			t.Fatalf("fetch address %x outside region [%x,%x)", a, c.Region.Base, c.Region.End())
		}
		if a%BlockBytes != 0 {
			t.Fatalf("fetch address %x not block aligned", a)
		}
	}
}

func TestHotTierGetsMostFetches(t *testing.T) {
	l, c := layoutWith(t, 1<<20, Profile{
		Tiers:     []Tier{{CodeFrac: 0.10, FetchFrac: 0.90}, {CodeFrac: 0.90, FetchFrac: 0.10}},
		RunBlocks: 4,
	})
	g := NewGen(l, simrand.New(2))
	hotEnd := c.Region.Base + c.tierLen[0]*BlockBytes
	hot := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if g.NextBlock(c.ID) < hotEnd {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fetch fraction %v, want ~0.90", frac)
	}
}

func TestSequentialRuns(t *testing.T) {
	l, c := layoutWith(t, 1<<20, Profile{RunBlocks: 8})
	g := NewGen(l, simrand.New(3))
	prev := g.NextBlock(c.ID)
	sequential := 0
	const n = 50000
	for i := 0; i < n; i++ {
		a := g.NextBlock(c.ID)
		if a == prev+BlockBytes {
			sequential++
		}
		prev = a
	}
	// Mean run ~8 blocks => ~7/8 of steps are sequential.
	frac := float64(sequential) / n
	if frac < 0.7 {
		t.Fatalf("sequential fraction %v too low for RunBlocks=8", frac)
	}
}

func TestBlocksFor(t *testing.T) {
	cases := []struct{ n, want uint64 }{{0, 0}, {1, 1}, {16, 1}, {17, 2}, {160, 10}}
	for _, c := range cases {
		if got := BlocksFor(c.n); got != c.want {
			t.Errorf("BlocksFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestNextRunCallCount: fetching an n-instruction segment run by run, each
// run capped at the blocks still due, covers exactly ceil(n/16) blocks.
func TestNextRunCallCount(t *testing.T) {
	l, c := layoutWith(t, 64<<10, DefaultProfile())
	g := NewGen(l, simrand.New(4))
	count := uint64(0)
	for left := BlocksFor(1000); left > 0; {
		_, n := g.NextRun(c.ID, left)
		if n == 0 || n > left {
			t.Fatalf("NextRun(max %d) returned %d blocks", left, n)
		}
		count += n
		left -= n
	}
	if count != 63 { // ceil(1000/16)
		t.Fatalf("segment blocks = %d, want 63", count)
	}
}

func TestDeterministicStream(t *testing.T) {
	mk := func() []mem.Addr {
		l := NewCodeLayout(mem.NewAddrSpace())
		c := l.Add("x", 512<<10, false, DefaultProfile())
		g := NewGen(l, simrand.New(9))
		var out []mem.Addr
		for i := 0; i < 1000; i++ {
			out = append(out, g.NextBlock(c.ID))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

// TestFootprintDrivesMissCurve is the core behavioral check behind
// Figure 12: a component with a large, flat code footprint must miss far
// more in an intermediate cache than a compact hot-loop component, and both
// must approach zero once the cache covers the whole footprint.
func TestFootprintDrivesMissCurve(t *testing.T) {
	missRate := func(codeBytes uint64, p Profile, cacheBytes int) float64 {
		l := NewCodeLayout(mem.NewAddrSpace())
		c := l.Add("x", codeBytes, false, p)
		g := NewGen(l, simrand.New(5))
		sw := cache.NewSweep([]cache.Config{{Name: "I", SizeBytes: cacheBytes, Assoc: 4, BlockBytes: 64}})
		// Warm up (long enough to touch the cold tail), then measure.
		for i := 0; i < 600000; i++ {
			sw.Access(g.NextBlock(c.ID), mem.IFetch)
		}
		sw.ResetStats()
		for i := 0; i < 200000; i++ {
			sw.Access(g.NextBlock(c.ID), mem.IFetch)
		}
		return sw.MissCurve()[0].MissRatio
	}
	bigFlat := Profile{
		Tiers:     []Tier{{CodeFrac: 0.3, FetchFrac: 0.5}, {CodeFrac: 0.7, FetchFrac: 0.5}},
		RunBlocks: 4,
	}
	smallHot := Profile{
		Tiers:     []Tier{{CodeFrac: 0.2, FetchFrac: 0.95}, {CodeFrac: 0.8, FetchFrac: 0.05}},
		RunBlocks: 4,
	}
	big := missRate(2<<20, bigFlat, 256<<10)      // 2 MB code, 256 KB cache
	small := missRate(192<<10, smallHot, 256<<10) // 192 KB code, 256 KB cache
	if big < 4*small {
		t.Fatalf("large footprint miss %v not ≫ small footprint miss %v", big, small)
	}
	fits := missRate(2<<20, bigFlat, 8<<20) // whole footprint fits
	if fits > 0.002 {
		t.Fatalf("fitting cache still misses: %v", fits)
	}
}
