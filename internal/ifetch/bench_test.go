package ifetch

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/simrand"
)

// BenchmarkNextRun is the fetch generator's per-run cost: one NextRun call
// over a 384 KB component with the default tier profile, capped at 16
// blocks (a 128-instruction segment), the call ExecInstr makes per
// sequential run.
func BenchmarkNextRun(b *testing.B) {
	l := NewCodeLayout(mem.NewAddrSpace())
	c := l.Add("app", 384<<10, false, DefaultProfile())
	g := NewGen(l, simrand.New(1))
	var sink mem.Addr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, n := g.NextRun(c.ID, 16)
		sink += addr + mem.Addr(n)
	}
	_ = sink
}
