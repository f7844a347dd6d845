package cpu

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/ifetch"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/simrand"
)

func testRig(t *testing.T) (*Core, *memsys.Hierarchy) {
	t.Helper()
	mcfg := memsys.DefaultConfig(1)
	mcfg.L1I = cache.Config{Name: "L1I", SizeBytes: 8 << 10, Assoc: 2, BlockBytes: 64}
	mcfg.L1D = cache.Config{Name: "L1D", SizeBytes: 8 << 10, Assoc: 2, BlockBytes: 64}
	mcfg.L2 = cache.Config{Name: "L2", SizeBytes: 256 << 10, Assoc: 4, BlockBytes: 64}
	h := memsys.New(mcfg)
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	layout.Add("app", 64<<10, false, hotCold)
	gen := ifetch.NewGen(layout, simrand.New(7))
	return NewCore(0, h, gen), h
}

func TestExecInstrChargesBaseCPI(t *testing.T) {
	core, _ := testRig(t)
	// Warm the I-cache so later segments have no fetch stalls.
	for i := 0; i < 50; i++ {
		core.ExecInstr(0, 10000, 0)
	}
	core.ResetCounters()
	cy := core.ExecInstr(0, 10000, 0)
	if core.Counters.Instructions != 10000 {
		t.Fatalf("instructions = %d", core.Counters.Instructions)
	}
	base := core.Counters.BaseCycles
	if base < 9990 || base > 10010 {
		t.Fatalf("base cycles = %d for BaseCPI=1", base)
	}
	if cy != base+core.Counters.IStallCycles {
		t.Fatalf("returned cycles %d != accounted %d", cy, base+core.Counters.IStallCycles)
	}
}

func TestColdLoadChargesMemoryStall(t *testing.T) {
	core, _ := testRig(t)
	stall := core.Load(0x900000, 8, 0)
	if stall != memsys.DefaultLatencies().Memory {
		t.Fatalf("cold load stall = %d", stall)
	}
	if core.Counters.DStallMem != stall {
		t.Fatalf("not attributed to memory: %+v", core.Counters)
	}
	if core.Load(0x900000, 8, 100) != 0 {
		t.Fatal("warm load stalled")
	}
}

func TestMultiLineLoad(t *testing.T) {
	core, _ := testRig(t)
	stall := core.Load(0x900000, 256, 0) // 4 lines
	if stall != 4*memsys.DefaultLatencies().Memory {
		t.Fatalf("4-line cold load stall = %d", stall)
	}
}

func TestStoreBufferHidesLatencyUntilFull(t *testing.T) {
	core, _ := testRig(t)
	// A burst of isolated stores: the first 8 fill the buffer without
	// stalling; later ones must wait for drains.
	var stalls []uint64
	for i := 0; i < 16; i++ {
		stalls = append(stalls, core.Store(uint64(0x900000+i*4096), 8, 0))
	}
	for i := 0; i < 8; i++ {
		if stalls[i] != 0 {
			t.Fatalf("store %d stalled %d cycles with empty buffer", i, stalls[i])
		}
	}
	if core.Counters.DStallStoreBuf == 0 {
		t.Fatal("full store buffer never stalled")
	}
}

func TestStoreBufferDrainsOverTime(t *testing.T) {
	core, _ := testRig(t)
	for i := 0; i < 8; i++ {
		core.Store(uint64(0x900000+i*4096), 8, 0)
	}
	// Much later, the buffer has drained: no stall.
	if s := core.Store(0x980000, 8, 1_000_000); s != 0 {
		t.Fatalf("store after drain stalled %d", s)
	}
}

func TestRAWHazard(t *testing.T) {
	core, _ := testRig(t)
	// Warm the line first so the load stall isolates the RAW penalty.
	core.Load(0x900000, 8, 0)
	core.Store(0x900000, 8, 1000)
	stall := core.Load(0x900000, 8, 1002) // within RAW window
	if stall != rawPenalty {
		t.Fatalf("RAW stall = %d, want %d", stall, rawPenalty)
	}
	if core.Counters.DStallRAW == 0 {
		t.Fatal("RAW not attributed")
	}
	// Outside the window: no penalty.
	core.Store(0x900000, 8, 10000)
	if stall := core.Load(0x900000, 8, 10000+rawWindow+10); stall != 0 {
		t.Fatalf("stale RAW penalty: %d", stall)
	}
}

func TestCountersAggregate(t *testing.T) {
	var a, b Counters
	a.Instructions, a.BaseCycles, a.DStallMem = 100, 110, 75
	b.Instructions, b.IStallCycles, b.DStallC2C = 50, 20, 105
	a.Add(&b)
	if a.Instructions != 150 || a.Total() != 110+20+75+105 {
		t.Fatalf("aggregate = %+v", a)
	}
	if a.CPI() != float64(310)/150 {
		t.Fatalf("CPI = %v", a.CPI())
	}
	var empty Counters
	if empty.CPI() != 0 {
		t.Fatal("empty CPI guard failed")
	}
}

func TestLoadZeroSize(t *testing.T) {
	core, _ := testRig(t)
	if core.Load(0x900000, 0, 0) != 0 || core.Store(0x900000, 0, 0) != 0 {
		t.Fatal("zero-size access consumed cycles")
	}
}

// TestCPIDecompositionShape runs a mixed workload and checks the high-level
// property the paper's Figures 6/7 rely on: total cycles decompose exactly
// into the named categories.
func TestCPIDecompositionShape(t *testing.T) {
	core, _ := testRig(t)
	rng := simrand.New(9)
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		now += core.ExecInstr(0, uint64(10+rng.Intn(50)), now)
		a := 0x900000 + uint64(rng.Intn(1<<18))&^7
		if rng.Bool(0.3) {
			now += core.Store(a, 8, now)
		} else {
			now += core.Load(a, 8, now)
		}
	}
	c := &core.Counters
	if c.Total() != c.BaseCycles+c.IStallCycles+c.DStall() {
		t.Fatal("cycle decomposition does not sum")
	}
	if c.CPI() <= 1.0 {
		t.Fatalf("CPI %v implausibly low for miss-heavy mix", c.CPI())
	}
	if c.DStallMem == 0 || c.DStallL2Hit == 0 {
		t.Fatalf("decomposition missing categories: %+v", c)
	}
}
