package cache

import (
	"testing"

	"repro/internal/mem"
)

// fuzzLadder is a small multi-geometry sweep: two groups of nested sizes, a
// direct-mapped pair, and a 16 B-block cache.
var fuzzLadder = []Config{
	{Name: "f", SizeBytes: 4 << 10, Assoc: 2, BlockBytes: 64},
	{Name: "f", SizeBytes: 512, Assoc: 2, BlockBytes: 64},
	{Name: "f", SizeBytes: 1 << 10, Assoc: 2, BlockBytes: 64},
	{Name: "f", SizeBytes: 512, Assoc: 1, BlockBytes: 32},
	{Name: "f", SizeBytes: 2 << 10, Assoc: 1, BlockBytes: 32},
	{Name: "f", SizeBytes: 1 << 10, Assoc: 4, BlockBytes: 16},
}

// FuzzSweepMatchesReference drives the sweep and the reference model with
// arbitrary 3-byte records: a 16-bit address, then a byte whose low two bits
// pick the access type (3 is unknown) and whose upper six bits give a range
// length, 0 meaning a single Access; lengths 48-63 instead make a FetchRun
// of 1-16 fetches. Every geometry's Stats must match, and the inclusion
// invariants must hold at the end.
func FuzzSweepMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{255, 0, 255, 0, 128, 64, 32, 16, 8})
	f.Add([]byte{0, 0x42, 0xfe, 0x10, 0x01, 0xc8, 0x10, 0x01, 0xc8}) // runs, then a repeated one
	f.Fuzz(func(t *testing.T, data []byte) {
		var refs []ref
		for i := 0; i+2 < len(data); i += 3 {
			r := ref{
				a:    mem.Addr(data[i])<<8 | mem.Addr(data[i+1]),
				size: uint64(data[i+2] >> 2),
				t:    mem.AccessType(data[i+2] & 3),
			}
			if r.size >= 48 {
				r.run, r.size = r.size-47, 0
			}
			refs = append(refs, r)
		}
		sw := checkAgainstReference(t, fuzzLadder, refs)
		if err := sw.checkInclusion(); err != nil {
			t.Fatal(err)
		}
	})
}
