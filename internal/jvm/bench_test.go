package jvm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

func BenchmarkAllocSmall(b *testing.B) {
	cfg := DefaultConfig()
	cfg.HeapBytes = 256 << 20
	cfg.NewGenBytes = 64 << 20
	h := MustNewHeap(mem.NewAddrSpace(), cfg)
	rec := trace.NewRecorder("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Alloc(rec, 0, 64, 0)
		if i%1024 == 0 {
			h.ClearStack(0)
			rec = trace.NewRecorder("bench") // keep the trace bounded
		}
	}
}

func BenchmarkMinorGC(b *testing.B) {
	cfg := DefaultConfig()
	cfg.HeapBytes = 64 << 20
	cfg.NewGenBytes = 16 << 20
	h := MustNewHeap(mem.NewAddrSpace(), cfg)
	rec := trace.NewRecorder("bench")
	// A 2 MB live set to copy each collection.
	var roots []ObjectID
	for i := 0; i < 2048; i++ {
		id := h.Alloc(rec, 0, 1024, 0)
		h.AddRoot(id)
		roots = append(roots, id)
	}
	h.ClearStack(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MinorGC(nil)
	}
	_ = roots
}
