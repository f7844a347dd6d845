package simrand

import "testing"

// BenchmarkFloat64 is one uniform draw, the form the workload generators
// and the fetch generator's tier choice use most.
func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

// BenchmarkIntn is one bounded integer draw (run lengths, node and block
// choices).
func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}
