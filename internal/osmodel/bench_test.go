package osmodel

import (
	"testing"

	"repro/internal/ifetch"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// BenchmarkEngineThroughput measures raw playback speed: simulated cycles
// per wall-clock second on a 16-CPU machine with 16 compute-bound threads.
func BenchmarkEngineThroughput(b *testing.B) {
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	user := layout.Add("app", 128<<10, false, hotCold)
	data := space.Reserve("data", 4<<20)
	eng := NewEngine(DefaultConfig(16), memsys.New(memsys.DefaultConfig(16)), layout, nil, simrand.New(1))
	for t := 0; t < 16; t++ {
		rng := simrand.New(uint64(t + 100))
		eng.AddThread("w", funcSource(func(tid int, now uint64) *trace.Op {
			rec := trace.NewRecorder("op")
			rec.Reset("op", true)
			rec.Instr(user.ID, 5_000)
			for i := 0; i < 20; i++ {
				rec.Read(data.Base+uint64(rng.Intn(1<<16))*64, 8)
			}
			return rec.Finish()
		}))
	}
	b.ResetTimer()
	horizon := uint64(0)
	for i := 0; i < b.N; i++ {
		horizon += 100_000
		eng.Run(horizon)
	}
	b.ReportMetric(float64(horizon), "simulated-cycles")
}

// hotCold is a generic code profile: 10% of the code takes 90% of the
// fetches.
var hotCold = ifetch.Profile{
	Tiers:     []ifetch.Tier{{CodeFrac: 0.10, FetchFrac: 0.90}, {CodeFrac: 0.90, FetchFrac: 0.10}},
	RunBlocks: 4,
}
