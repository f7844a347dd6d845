package cache

import (
	"testing"

	"repro/internal/mem"
)

// Substrate micro-benchmarks: the coherent cache's ProbeTouch hit and
// Allocate miss paths carry every timed-engine access, and the sweep carries
// Figures 12/13, so regressions here slow every experiment.

var sinkLine *Line

func BenchmarkProbeTouchHit(b *testing.B) {
	c := New(Config{Name: "b", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64})
	c.Allocate(0x1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLine = c.ProbeTouch(0x1000)
	}
}

// BenchmarkProbeTouchLRUWay hits the last way every time: it cycles through
// the four blocks of one full set, so each hit moves a word from the back of
// the set to the front.
func BenchmarkProbeTouchLRUWay(b *testing.B) {
	const size, assoc = 1 << 20, 4
	c := New(Config{Name: "b", SizeBytes: size, Assoc: assoc, BlockBytes: 64})
	const stride = size / assoc // the distance between blocks of one set
	for i := uint64(0); i < assoc; i++ {
		c.Allocate(i*stride, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLine = c.ProbeTouch(uint64(i%assoc) * stride)
	}
}

func BenchmarkAllocateMissStream(b *testing.B) {
	c := New(Config{Name: "b", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ba := uint64(i) * 64
		if sinkLine = c.ProbeTouch(ba); sinkLine == nil {
			sinkLine, _, _ = c.Allocate(ba, 1)
		}
	}
}

func BenchmarkSweepNineConfigs(b *testing.B) {
	sw := NewSweep(SizeSweepConfigs("b"))
	r := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		sw.AccessRange((r>>30)%(4<<20), 1, mem.Read)
	}
}

// BenchmarkSweepFetchRuns is the Figure 12 instruction-cache sweep's feed:
// one op is one fetch run of 1-8 blocks 64 B apart through the nine-size
// ladder, seven in eight runs in a 512 KB hot region and the rest
// anywhere in 8 MB of code.
func BenchmarkSweepFetchRuns(b *testing.B) {
	sw := NewSweep(SizeSweepConfigs("b"))
	r := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		span := uint64(8 << 20)
		if r>>60 < 14 {
			span = 512 << 10
		}
		sw.AccessRun((r>>20)%span&^63, 1+r>>8%8, 64, mem.IFetch)
	}
}
