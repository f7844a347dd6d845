package cache

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func small() Config {
	return Config{Name: "t", SizeBytes: 1024, Assoc: 2, BlockBytes: 64} // 8 sets
}

// access is one write-back, write-allocate access on c: ProbeTouch, then
// Allocate on a miss, then Dirty on a write. It reports whether it hit.
func access(c *Cache, a mem.Addr, t mem.AccessType) bool {
	ba := c.BlockAddr(a)
	l := c.ProbeTouch(ba)
	hit := l != nil
	if !hit {
		l, _, _ = c.Allocate(ba, 1)
	}
	if t == mem.Write {
		l.SetDirty(true)
	}
	return hit
}

// hit feeds one reference to the first geometry of a sweep and reports
// whether it hit there.
func hit(sw *Sweep, a mem.Addr, t mem.AccessType) bool {
	before := sw.stats(0).Misses()
	sw.Access(a, t)
	return sw.stats(0).Misses() == before
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		small(),
		{Name: "direct", SizeBytes: 4096, Assoc: 1, BlockBytes: 32},
		{Name: "full-ish", SizeBytes: 512, Assoc: 8, BlockBytes: 64},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 1000, Assoc: 2, BlockBytes: 64},    // size not pow2
		{SizeBytes: 1024, Assoc: 0, BlockBytes: 64},    // assoc 0
		{SizeBytes: 1024, Assoc: 2, BlockBytes: 48},    // block not pow2
		{SizeBytes: 64, Assoc: 2, BlockBytes: 64},      // smaller than a set
		{SizeBytes: 0, Assoc: 1, BlockBytes: 64},       // zero
		{SizeBytes: 1 << 20, Assoc: 3, BlockBytes: 64}, // sets not pow2
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%v: expected error", c)
		}
	}
}

func TestHitAfterMiss(t *testing.T) {
	sw := NewSweep([]Config{small()})
	if hit(sw, 0x1000, mem.Read) {
		t.Fatal("cold access hit")
	}
	if !hit(sw, 0x1000, mem.Read) {
		t.Fatal("warm access missed")
	}
	if !hit(sw, 0x1030, mem.Read) {
		t.Fatal("same-block access missed")
	}
	if st := sw.stats(0); st.Reads != 3 || st.ReadMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	sw := NewSweep([]Config{small()}) // 2-way, 8 sets, 64B blocks: set stride = 512B
	a0 := mem.Addr(0x0000)
	a1 := mem.Addr(0x0200) // same set (8 sets * 64B = 512)
	a2 := mem.Addr(0x0400) // same set
	sw.Access(a0, mem.Read)
	sw.Access(a1, mem.Read)
	sw.Access(a0, mem.Read) // a0 now MRU; a1 is LRU
	sw.Access(a2, mem.Read) // evicts a1
	if !hit(sw, a0, mem.Read) {
		t.Fatal("a0 should have survived")
	}
	if hit(sw, a1, mem.Read) {
		t.Fatal("a1 should have been evicted")
	}
}

func TestDirtyEviction(t *testing.T) {
	sw := NewSweep([]Config{small()})
	sw.Access(0x0000, mem.Write)
	sw.Access(0x0200, mem.Read)
	sw.Access(0x0400, mem.Read) // evicts dirty 0x0000
	if st := sw.stats(0); st.DirtyEvictions != 1 || st.Evictions != 1 {
		t.Fatalf("evictions = %d, dirty = %d", st.Evictions, st.DirtyEvictions)
	}
}

func TestWriteMarksDirtyOnMissAndHit(t *testing.T) {
	c := New(small())
	access(c, 0x1000, mem.Write) // miss-allocate-dirty
	if l := c.Probe(c.BlockAddr(0x1000)); l == nil || !l.Dirty() {
		t.Fatal("write miss did not leave dirty line")
	}
	c2 := New(small())
	access(c2, 0x1000, mem.Read)
	access(c2, 0x1000, mem.Write)
	if l := c2.Probe(c2.BlockAddr(0x1000)); l == nil || !l.Dirty() {
		t.Fatal("write hit did not mark dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(small())
	access(c, 0x1000, mem.Write)
	dirty, present := c.Invalidate(c.BlockAddr(0x1000))
	if !present || !dirty {
		t.Fatal("invalidate of dirty line misreported")
	}
	if access(c, 0x1000, mem.Read) {
		t.Fatal("line survived invalidation")
	}
	if _, present := c.Invalidate(0xdead000); present {
		t.Fatal("invalidate of absent line misreported")
	}
}

func TestProbeDoesNotTouchLRU(t *testing.T) {
	c := New(small())
	a0, a1, a2 := mem.Addr(0), mem.Addr(0x200), mem.Addr(0x400)
	access(c, a0, mem.Read)
	access(c, a1, mem.Read)
	c.Probe(c.BlockAddr(a0)) // must NOT refresh a0
	access(c, a2, mem.Read)  // evicts a0 (LRU by access order)
	if access(c, a0, mem.Read) {
		t.Fatal("Probe refreshed LRU")
	}
}

func TestAccessRange(t *testing.T) {
	misses := func(sw *Sweep, a mem.Addr, size uint64) uint64 {
		before := sw.stats(0).Misses()
		sw.AccessRange(a, size, mem.Read)
		return sw.stats(0).Misses() - before
	}
	sw := NewSweep([]Config{{Name: "t", SizeBytes: 4096, Assoc: 4, BlockBytes: 64}})
	if got := misses(sw, 0x100, 256); got != 4 { // 4 blocks
		t.Fatalf("misses = %d, want 4", got)
	}
	if misses(sw, 0x100, 256) != 0 {
		t.Fatal("warm range missed")
	}
	before := sw.stats(0).Accesses()
	if misses(sw, 0x100, 0) != 0 || sw.stats(0).Accesses() != before {
		t.Fatal("zero-size range accessed something")
	}
	// Range crossing one block boundary with size < block.
	if got := misses(NewSweep([]Config{small()}), 0x3f, 2); got != 2 {
		t.Fatalf("boundary-crossing range misses = %d, want 2", got)
	}
}

func TestWorkingSetFitsMeansNoMisses(t *testing.T) {
	sw := NewSweep([]Config{{Name: "t", SizeBytes: 1 << 16, Assoc: 4, BlockBytes: 64}})
	// 32 KB working set in a 64 KB cache: after warmup, zero misses.
	for pass := 0; pass < 3; pass++ {
		if pass == 1 {
			sw.ResetStats()
		}
		for a := mem.Addr(0); a < 32<<10; a += 64 {
			sw.Access(a, mem.Read)
		}
	}
	if m := sw.stats(0).Misses(); m != 0 {
		t.Fatalf("steady-state misses = %d, want 0", m)
	}
}

func TestWorkingSetExceedsDirectCapacity(t *testing.T) {
	sw := NewSweep([]Config{{Name: "t", SizeBytes: 1 << 12, Assoc: 1, BlockBytes: 64}})
	// 8 KB cyclic working set in a 4 KB direct-mapped cache: every access
	// misses in steady state (classic LRU pathological).
	for pass := 0; pass < 4; pass++ {
		if pass == 2 {
			sw.ResetStats()
		}
		for a := mem.Addr(0); a < 8<<10; a += 64 {
			sw.Access(a, mem.Read)
		}
	}
	st := sw.stats(0)
	if ratio := st.MissRatio(); ratio != 1.0 {
		t.Fatalf("cyclic overflow miss ratio = %v, want 1.0", ratio)
	}
}

func TestMissRatioMonotoneInSize(t *testing.T) {
	// Bigger caches can't miss more on the same stream: at the same
	// associativity and block size, LRU keeps every block of a cache in each
	// larger one whose power-of-two sets nest inside its own, so this holds
	// for every stream.
	sw := NewSweep(SizeSweepConfigs("L"))
	r := uint64(12345)
	for i := 0; i < 200000; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		addr := (r >> 33) % (8 << 20)
		sw.Access(addr, mem.Read)
	}
	sw.CountInstructions(200000)
	curve := sw.MissCurve()
	for i := 1; i < len(curve); i++ {
		if curve[i].MissesPer1000 > curve[i-1].MissesPer1000+1e-9 {
			t.Fatalf("miss curve not monotone: %+v", curve)
		}
	}
	if curve[0].SizeBytes != 64<<10 || curve[len(curve)-1].SizeBytes != 16<<20 {
		t.Fatalf("sweep sizes wrong: %d..%d", curve[0].SizeBytes, curve[len(curve)-1].SizeBytes)
	}
}

func TestSweepResetStats(t *testing.T) {
	sw := NewSweep([]Config{small()})
	sw.Access(0x1000, mem.Read)
	sw.CountInstructions(10)
	sw.ResetStats()
	if sw.Instructions != 0 || sw.stats(0).Accesses() != 0 {
		t.Fatal("ResetStats incomplete")
	}
	// Contents stay warm.
	if !hit(sw, 0x1000, mem.Read) {
		t.Fatal("ResetStats cleared contents")
	}
}

func TestAllocatePanicsOnInvalidState(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(small()).Allocate(0, StateInvalid)
}

// TestNewRejectsSmallBlocks: a block address's low four bits hold the packed
// line state, so New refuses blocks under 16 B while the sweep, which keeps
// its own tag words, still takes them.
func TestNewRejectsSmallBlocks(t *testing.T) {
	tiny := Config{Name: "s", SizeBytes: 1 << 10, Assoc: 2, BlockBytes: 8}
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "16 B minimum") {
				t.Errorf("New with 8 B blocks: panic %q, want the 16 B minimum", msg)
			}
		}()
		New(tiny)
	}()
	New(Config{Name: "s", SizeBytes: 1 << 10, Assoc: 2, BlockBytes: 16})
	sw := NewSweep([]Config{tiny})
	sw.Access(0x100, mem.Read)
	if !hit(sw, 0x104, mem.Read) || hit(sw, 0x108, mem.Read) {
		t.Fatal("8 B sweep geometry does not hit within a block and miss across one")
	}
}

// TestSetStateRejectsInvalid: a line leaves the cache only through
// Invalidate or eviction, and a state must fit the three state bits.
func TestSetStateRejectsInvalid(t *testing.T) {
	for _, st := range []State{StateInvalid, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetState(%d) did not panic", st)
				}
			}()
			l, _, _ := New(small()).Allocate(0x40, 1)
			l.SetState(st)
		}()
	}
}

func TestQuickProbeAfterAllocate(t *testing.T) {
	c := New(Config{Name: "q", SizeBytes: 1 << 14, Assoc: 4, BlockBytes: 64})
	f := func(raw uint32) bool {
		ba := c.BlockAddr(mem.Addr(raw))
		nl, _, _ := c.Allocate(ba, 2)
		l := c.Probe(ba)
		return l != nil && l == nl && l.Tag() == ba && l.State() == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVictimReported(t *testing.T) {
	c := New(Config{Name: "v", SizeBytes: 128, Assoc: 1, BlockBytes: 64}) // 2 sets
	c.Allocate(0, 2)
	l, v, had := c.Allocate(128, 3) // same set (2 sets * 64 = 128 stride)
	if !had || v.Tag() != 0 || v.State() != 2 {
		t.Fatalf("victim = %+v had=%v", v, had)
	}
	if l == nil || l.Tag() != 128 || l.State() != 3 {
		t.Fatalf("inserted line = %+v", l)
	}
	_, _, had = c.Allocate(64, 2) // other set, empty
	if had {
		t.Fatal("unexpected victim from empty set")
	}
}

func TestAssocSweepConfigs(t *testing.T) {
	cfgs := AssocSweepConfigs("A", 256<<10)
	if len(cfgs) != 5 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if c.SizeBytes != 256<<10 || c.BlockBytes != 64 {
			t.Fatalf("fixed dims drifted: %v", c)
		}
	}
	if cfgs[0].Assoc != 1 || cfgs[4].Assoc != 16 {
		t.Fatalf("assoc ladder wrong: %v..%v", cfgs[0].Assoc, cfgs[4].Assoc)
	}
}

func TestBlockSweepConfigs(t *testing.T) {
	cfgs := BlockSweepConfigs("B", 256<<10)
	if len(cfgs) != 5 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	}
	if cfgs[0].BlockBytes != 16 || cfgs[4].BlockBytes != 256 {
		t.Fatalf("block ladder wrong: %v..%v", cfgs[0].BlockBytes, cfgs[4].BlockBytes)
	}
}

// TestAssociativityReducesConflicts: a conflict-heavy stream (set-stride)
// misses hard direct-mapped and not at all at high associativity.
func TestAssociativityReducesConflicts(t *testing.T) {
	sw := NewSweep(AssocSweepConfigs("A", 8<<10))
	// Four lines mapping to the same direct-mapped set (stride = size).
	for pass := 0; pass < 200; pass++ {
		for i := 0; i < 4; i++ {
			sw.Access(mem.Addr(i*(8<<10)), mem.Read)
		}
	}
	dm, high := sw.stats(0), sw.stats(3) // 1-way, 8-way
	if r := dm.MissRatio(); r < 0.9 {
		t.Fatalf("direct-mapped conflict stream miss ratio %v, want ~1", r)
	}
	if r := high.MissRatio(); r > 0.05 {
		t.Fatalf("8-way miss ratio %v, want ~0 after warmup", r)
	}
}

// TestLargerBlocksExploitSpatialLocality: a sequential byte stream misses
// once per block, so larger blocks mean fewer misses.
func TestLargerBlocksExploitSpatialLocality(t *testing.T) {
	cfgs := BlockSweepConfigs("B", 64<<10)
	sw := NewSweep(cfgs)
	for a := mem.Addr(0); a < 32<<10; a += 16 {
		sw.Access(a, mem.Read)
	}
	for i := 1; i < len(cfgs); i++ {
		if cur, prev := sw.stats(i).Misses(), sw.stats(i-1).Misses(); cur >= prev {
			t.Fatalf("block %dB misses (%d) not below block %dB (%d)",
				cfgs[i].BlockBytes, cur, cfgs[i-1].BlockBytes, prev)
		}
	}
}
