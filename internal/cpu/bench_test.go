package cpu

import (
	"testing"

	"repro/internal/ifetch"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/simrand"
)

// BenchmarkExecInstr is one 200-instruction segment on a default
// one-processor machine: the fetch-run loop, the hierarchy fetches it
// issues (a 256 KB component against a 16 KB L1I and a 1 MB L2, so both
// hits and misses) and the base-CPI accounting.
func BenchmarkExecInstr(b *testing.B) {
	layout := ifetch.NewCodeLayout(mem.NewAddrSpace())
	app := layout.Add("app", 256<<10, false, hotCold)
	core := NewCore(0, memsys.New(memsys.DefaultConfig(1)), ifetch.NewGen(layout, simrand.New(1)))
	var now uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += core.ExecInstr(app.ID, 200, now)
	}
}

// hotCold is a generic code profile: 10% of the code takes 90% of the
// fetches.
var hotCold = ifetch.Profile{
	Tiers:     []ifetch.Tier{{CodeFrac: 0.10, FetchFrac: 0.90}, {CodeFrac: 0.90, FetchFrac: 0.10}},
	RunBlocks: 4,
}
