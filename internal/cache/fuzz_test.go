package cache

import (
	"testing"

	"repro/internal/mem"
)

// fuzzLadder is a small multi-geometry sweep: groups of nested sizes (2-way
// and 4-way at 64 B blocks and 4-way at 128 B, whose set counts step x2 and
// then x4), a direct-mapped pair, and a 16 B-block cache. The 64 B groups take
// a fetch run as one range; the 128 B group takes it fetch by fetch.
var fuzzLadder = []Config{
	{Name: "f", SizeBytes: 4 << 10, Assoc: 2, BlockBytes: 64},
	{Name: "f", SizeBytes: 512, Assoc: 2, BlockBytes: 64},
	{Name: "f", SizeBytes: 1 << 10, Assoc: 2, BlockBytes: 64},
	{Name: "f", SizeBytes: 512, Assoc: 1, BlockBytes: 32},
	{Name: "f", SizeBytes: 2 << 10, Assoc: 1, BlockBytes: 32},
	{Name: "f", SizeBytes: 1 << 10, Assoc: 4, BlockBytes: 16},
	{Name: "f4", SizeBytes: 512, Assoc: 4, BlockBytes: 64},
	{Name: "f4", SizeBytes: 1 << 10, Assoc: 4, BlockBytes: 64},
	{Name: "f4", SizeBytes: 4 << 10, Assoc: 4, BlockBytes: 64},
	{Name: "f128", SizeBytes: 1 << 10, Assoc: 4, BlockBytes: 128},
	{Name: "f128", SizeBytes: 2 << 10, Assoc: 4, BlockBytes: 128},
	{Name: "f128", SizeBytes: 8 << 10, Assoc: 4, BlockBytes: 128},
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
	// Writes to blocks at way 2 of f4 512B and at way 1 of f128 1KB, each
	// the smallest member of its group. The blocks ahead of each sit in
	// other sets of the next member (f4 1KB, f128 2KB), where the written
	// block is at the front; the walk must move it to the front of the
	// smallest member before it stops there.
	f.Add([]byte{
		0x00, 0x00, 0x00, 0x00, 0x80, 0x00, 0x02, 0x80, 0x00, 0x00, 0x00, 0x01,
		0x10, 0x00, 0x00, 0x11, 0x00, 0x00, 0x10, 0x00, 0x01,
	})
	// Writes to blocks at ways 1 and 2 of f4 512B, after a run of five
	// fetches has filled its sets.
	f.Add([]byte{0x00, 0x00, 0xd0, 0x00, 0x80, 0x01, 0x00, 0x00, 0x01})
	// Four reads fill a set of f4 512B, a read hits at way 2, and two misses
	// evict the two oldest blocks: the last read hits only if the hit left
	// the set in LRU order.
	f.Add([]byte{
		0x00, 0x00, 0x00, 0x00, 0x80, 0x00, 0x01, 0x00, 0x00, 0x01, 0x80, 0x00,
		0x00, 0x80, 0x00, 0x02, 0x00, 0x00, 0x02, 0x80, 0x00, 0x01, 0x00, 0x00,
	})
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
