package tlb

import "testing"

// FuzzTLBConsistency checks that any access sequence keeps the counters
// coherent and a repeated address always hits on its second consecutive
// access.
func FuzzTLBConsistency(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		tl := New()
		for i := 0; i+1 < len(data); i += 2 {
			addr := uint64(data[i])<<16 | uint64(data[i+1])<<8
			tl.Access(addr)
			if tl.Access(addr) != 0 {
				t.Fatalf("back-to-back access to %x missed", addr)
			}
		}
		if tl.Misses > tl.Lookups {
			t.Fatal("more misses than lookups")
		}
	})
}
