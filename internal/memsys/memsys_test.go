package memsys

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/simrand"
)

func smallCfg(cpus, perL2 int) Config {
	c := DefaultConfig(cpus)
	c.CPUsPerL2 = perL2
	c.L1I = cache.Config{Name: "L1I", SizeBytes: 4 << 10, Assoc: 2, BlockBytes: 64}
	c.L1D = cache.Config{Name: "L1D", SizeBytes: 4 << 10, Assoc: 2, BlockBytes: 64}
	c.L2 = cache.Config{Name: "L2", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64}
	return c
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig(8).Validate(); err != nil {
		t.Fatal(err)
	}
	c := DefaultConfig(8)
	c.CPUsPerL2 = 3
	if err := c.Validate(); err == nil {
		t.Fatal("8 CPUs / 3 per L2 accepted")
	}
	c = DefaultConfig(0)
	if err := c.Validate(); err == nil {
		t.Fatal("0 CPUs accepted")
	}
	c = DefaultConfig(4)
	c.L1D.BlockBytes = 32
	if err := c.Validate(); err == nil {
		t.Fatal("mismatched block sizes accepted")
	}
}

// TestValidateBusWidth: the snoop filter's sharer mask describes at most
// coherence.MaxNodes L2s, so a machine with more is rejected up front.
func TestValidateBusWidth(t *testing.T) {
	for _, tc := range []struct {
		cpus, perL2 int
		ok          bool
	}{
		{16, 1, true},
		{32, 1, true},
		{33, 1, false},
		{64, 1, false},
		{64, 2, true},
		{66, 2, false},
		{256, 8, true},
		{264, 8, false},
	} {
		c := DefaultConfig(tc.cpus)
		c.CPUsPerL2 = tc.perL2
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%d CPUs, %d per L2: Validate() = %v, want ok=%v", tc.cpus, tc.perL2, err, tc.ok)
		}
	}
}

func TestL1HitNoStall(t *testing.T) {
	h := New(smallCfg(2, 1))
	if r := h.Read(0, 0x10000, 0); r.Class != StallMem {
		t.Fatalf("cold read class = %v", r.Class)
	}
	if r := h.Read(0, 0x10000, 0); r.Class != StallNone || r.Stall != 0 {
		t.Fatalf("warm read = %+v", r)
	}
}

func TestL2HitAfterL1Evict(t *testing.T) {
	h := New(smallCfg(1, 1))
	h.Read(0, 0x10000, 0)
	// Evict from tiny L1D by sweeping 8 KB of conflicting lines.
	for a := uint64(0x20000); a < 0x22000; a += 64 {
		h.Read(0, a, 0)
	}
	r := h.Read(0, 0x10000, 0)
	if r.Class != StallL2Hit {
		t.Fatalf("expected L2 hit, got %v", r.Class)
	}
	if r.Stall != DefaultLatencies().L2Hit {
		t.Fatalf("stall = %d", r.Stall)
	}
}

func TestCrossCPUDirtyReadIsC2CAndSlowerThanMemory(t *testing.T) {
	h := New(smallCfg(2, 1))
	h.Write(0, 0x10000, 0)
	r := h.Read(1, 0x10000, 0)
	if r.Class != StallC2C {
		t.Fatalf("class = %v", r.Class)
	}
	lat := DefaultLatencies()
	if r.Stall != lat.C2C || lat.C2C <= lat.Memory {
		t.Fatalf("c2c latency %d not > memory %d", r.Stall, lat.Memory)
	}
}

func TestSharedL2EliminatesC2C(t *testing.T) {
	// Same producer-consumer pattern; with a shared L2 the consumer hits in
	// the shared cache instead of paying a bus transfer. This is the
	// mechanism behind Figure 16.
	private := New(smallCfg(2, 1))
	shared := New(smallCfg(2, 2))
	for i := 0; i < 100; i++ {
		a := uint64(0x10000 + i*64)
		private.Write(0, a, 0)
		private.Read(1, a, 0)
		shared.Write(0, a, 0)
		shared.Read(1, a, 0)
	}
	if private.Bus().Stats.C2CTransfers == 0 {
		t.Fatal("private L2s produced no C2C")
	}
	if shared.Bus().Stats.C2CTransfers != 0 {
		t.Fatalf("shared L2 produced %d C2C", shared.Bus().Stats.C2CTransfers)
	}
}

func TestSiblingL1InvalidatedOnWrite(t *testing.T) {
	h := New(smallCfg(2, 2))
	h.Read(0, 0x10000, 0)
	h.Read(1, 0x10000, 0)
	h.Write(0, 0x10000, 0)
	// CPU 1's L1 copy must be gone: its next read refills (from shared L2).
	if hit := h.L1D(1).Probe(h.L1D(1).BlockAddr(0x10000)); hit != nil {
		t.Fatal("sibling L1 kept stale copy after write")
	}
	if r := h.Read(1, 0x10000, 0); r.Class != StallL2Hit {
		t.Fatalf("refill class = %v, want l2hit", r.Class)
	}
}

func TestWritePermissionUpgrade(t *testing.T) {
	h := New(smallCfg(2, 1))
	h.Read(0, 0x10000, 0)
	h.Read(1, 0x10000, 0)
	r := h.Write(0, 0x10000, 0) // S->M upgrade through the bus
	if r.Class != StallL2Hit || r.Stall != DefaultLatencies().Upgrade {
		t.Fatalf("upgrade result = %+v", r)
	}
	// Second write: full L1 hit with permission, no stall.
	if r := h.Write(0, 0x10000, 0); r.Class != StallNone {
		t.Fatalf("owned write = %+v", r)
	}
}

// TestWriteKeepsL1LinePointer pins the *Line lifetime Write relies on: it
// holds the L1D line from its ProbeTouch across node.Write, whose L2 victim's
// inclusion invalidate can land in the same L1D set, then upgrades the line
// through that pointer. Invalidate clears a way in place, so the pointer must
// still name the written block. Inclusion normally makes such a write hit in
// the L2, so the test fills the L1D behind the L2's back to force the
// eviction.
func TestWriteKeepsL1LinePointer(t *testing.T) {
	h := New(smallCfg(1, 1))
	l1d := h.L1D(0)
	const stride = 16 << 10 // one L2 set, and so one L1D set
	a, b := uint64(0x10000), uint64(0x10000+stride)
	for i := uint64(1); i <= 4; i++ {
		h.Read(0, a+i*stride, 0) // the L2 set becomes b..a+4·stride, b LRU
	}
	for i := uint64(3); i <= 4; i++ {
		l1d.Invalidate(a + i*stride)
	}
	l1d.Allocate(b, l1Shared)
	l1d.Allocate(a, l1Shared) // L1D set: a (most recent), b

	h.Write(0, a, 0)
	if l1d.Probe(b) != nil {
		t.Fatal("the L2 victim's inclusion invalidate missed the L1D")
	}
	l := l1d.Probe(a)
	if l == nil || l.State() != l1Modified || !l.Dirty() {
		t.Fatalf("written block in L1D = %v, want Modified and dirty", l)
	}
	for i := uint64(1); i <= 4; i++ {
		if l1d.Probe(a+i*stride) != nil {
			t.Fatalf("L1D holds block %#x, want only the written block", a+i*stride)
		}
	}
}

func TestL1InclusionOnRemoteWrite(t *testing.T) {
	h := New(smallCfg(2, 1))
	h.Read(0, 0x10000, 0) // CPU0 L1D + L2 have it
	h.Write(1, 0x10000, 0)
	// CPU0's L1 must have been invalidated through the node hook.
	if h.L1D(0).Probe(h.L1D(0).BlockAddr(0x10000)) != nil {
		t.Fatal("L1 inclusion violated: stale L1 line after remote write")
	}
	r := h.Read(0, 0x10000, 0)
	if r.Class != StallC2C {
		t.Fatalf("re-read class = %v, want c2c", r.Class)
	}
}

func TestFetchPath(t *testing.T) {
	h := New(smallCfg(1, 1))
	if r := h.Fetch(0, 0x40000, 0); r.Class != StallMem {
		t.Fatalf("cold fetch = %+v", r)
	}
	if r := h.Fetch(0, 0x40000, 0); r.Class != StallNone {
		t.Fatalf("warm fetch = %+v", r)
	}
	if h.L1I(0).Stats.Fetches != 2 || h.L1I(0).Stats.FetchMisses != 1 {
		t.Fatalf("L1I stats = %+v", h.L1I(0).Stats)
	}
}

func TestResetStatsKeepsWarmth(t *testing.T) {
	h := New(smallCfg(2, 1))
	h.Read(0, 0x10000, 0)
	h.ResetStats()
	if h.Bus().Stats.DataRequests() != 0 || h.L1D(0).Stats.Accesses() != 0 {
		t.Fatal("stats not reset")
	}
	if r := h.Read(0, 0x10000, 0); r.Class != StallNone {
		t.Fatal("reset lost cache contents")
	}
}

func TestL2MissesPer1000(t *testing.T) {
	h := New(smallCfg(1, 1))
	for i := 0; i < 10; i++ {
		h.Read(0, uint64(0x10000+i*4096), 0)
	}
	if got := h.L2MissesPer1000(1000); got != 10 {
		t.Fatalf("L2MissesPer1000 = %v", got)
	}
	if h.L2MissesPer1000(0) != 0 {
		t.Fatal("zero-instruction guard failed")
	}
}

// TestSharedVsPrivateTradeoff reproduces Figure 16's two regimes in
// miniature: a sharing-heavy workload misses less with one shared L2, while
// a capacity-bound workload misses less with private L2s.
func TestSharedVsPrivateTradeoff(t *testing.T) {
	run := func(perL2 int, sharedFrac float64, footprint uint64) float64 {
		h := New(smallCfg(4, perL2))
		rng := simrand.New(42)
		const refs = 120000
		for i := 0; i < refs; i++ {
			cpu := rng.Intn(4)
			var a uint64
			if rng.Float64() < sharedFrac {
				a = 0x100000 + uint64(rng.Intn(64))*64 // hot shared lines
			} else {
				// Private region per CPU.
				a = uint64(0x200000) + uint64(cpu)<<24 + uint64(rng.Int63n(int64(footprint)))&^63
			}
			if rng.Bool(0.3) {
				h.Write(cpu, a, uint64(i))
			} else {
				h.Read(cpu, a, uint64(i))
			}
		}
		return h.L2MissesPer1000(refs)
	}
	// Sharing-heavy, small footprint: shared cache wins.
	privA := run(1, 0.6, 16<<10)
	sharA := run(4, 0.6, 16<<10)
	if sharA >= privA {
		t.Fatalf("sharing-heavy: shared L2 (%v) not better than private (%v)", sharA, privA)
	}
	// Capacity-bound, little sharing: private caches win (4x total capacity).
	privB := run(1, 0.02, 56<<10)
	sharB := run(4, 0.02, 56<<10)
	if privB >= sharB {
		t.Fatalf("capacity-bound: private L2 (%v) not better than shared (%v)", privB, sharB)
	}
}

func TestDTLBWiring(t *testing.T) {
	cfg := smallCfg(1, 1)
	cfg.DTLB = true
	h := New(cfg)
	r := h.Read(0, 0x100000, 0)
	if r.TLBStall == 0 {
		t.Fatal("cold read did not pay a TLB refill")
	}
	// Same page: no TLB stall even though the line differs.
	r = h.Read(0, 0x100040, 0)
	if r.TLBStall != 0 {
		t.Fatalf("same-page access paid TLB stall %d", r.TLBStall)
	}
	if h.DTLB(0) == nil || h.DTLB(0).Misses == 0 {
		t.Fatal("TLB not exposed or not counting")
	}
	// Fetches are not translated by the dTLB.
	f := h.Fetch(0, 0x900000, 0)
	if f.TLBStall != 0 {
		t.Fatal("instruction fetch charged a dTLB stall")
	}
	// No TLB configured -> no stalls, nil accessor.
	h2 := New(smallCfg(1, 1))
	if h2.DTLB(0) != nil {
		t.Fatal("unconfigured TLB present")
	}
}
