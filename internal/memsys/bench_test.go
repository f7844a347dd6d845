package memsys

import (
	"testing"

	"repro/internal/mem"
)

// Hierarchy micro-benchmarks: Fetch and Read carry every instruction-block
// fetch and data load of the timed engine, through the L1s, the L2 tag words,
// the snoop filter and the bus. Both run the 16-processor E6000 shape
// (DefaultConfig) warmed by a pass of the same stream, so the op mix is
// steady: seven in eight references fall in a hot region per processor and
// the rest anywhere in 8 MB.

var sinkResult Result

// benchStream returns a warmed 16-processor hierarchy and a generator of
// (processor, address) pairs: hot addresses in a per-processor region of hot
// bytes, the rest anywhere in 8 MB.
func benchStream(hot uint64, access func(h *Hierarchy, cpu int, a mem.Addr)) (*Hierarchy, func() (int, mem.Addr)) {
	h := New(DefaultConfig(16))
	r := uint64(1)
	next := func() (int, mem.Addr) {
		r = r*6364136223846793005 + 1442695040888963407
		cpu := int(r >> 60)
		if r>>57&7 != 0 {
			return cpu, 0x1000000 + uint64(cpu)*hot + (r>>20)%hot
		}
		return cpu, 0x4000000 + (r>>20)%(8<<20)
	}
	for i := 0; i < 1<<20; i++ {
		cpu, a := next()
		access(h, cpu, a)
	}
	return h, next
}

// BenchmarkHierarchyFetch is one instruction-block fetch; the hot region is
// 24 KB per processor, half again the 16 KB L1I.
func BenchmarkHierarchyFetch(b *testing.B) {
	h, next := benchStream(24<<10, func(h *Hierarchy, cpu int, a mem.Addr) { h.Fetch(cpu, a, 0) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, a := next()
		sinkResult = h.Fetch(cpu, a, uint64(i))
	}
}

// BenchmarkHierarchyRead is one data load; the hot region is 64 KB per
// processor, four times the 16 KB L1D and well inside the 1 MB L2.
func BenchmarkHierarchyRead(b *testing.B) {
	h, next := benchStream(64<<10, func(h *Hierarchy, cpu int, a mem.Addr) { h.Read(cpu, a, 0) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, a := next()
		sinkResult = h.Read(cpu, a, uint64(i))
	}
}
