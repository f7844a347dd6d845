package mem

import (
	"fmt"
	"testing"
)

func TestLine(t *testing.T) {
	cases := []struct{ in, want Addr }{
		{0, 0}, {1, 0}, {63, 0}, {64, 64}, {127, 64}, {128, 128},
	}
	for _, c := range cases {
		if got := Line(c.in); got != c.want {
			t.Errorf("Line(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAddrSpaceNonOverlapping(t *testing.T) {
	s := NewAddrSpace()
	a := s.Reserve("a", 1000)
	b := s.Reserve("b", 5<<20)
	c := s.Reserve("c", 1)
	regions := []Region{a, b, c}
	for i := range regions {
		if regions[i].Base == 0 {
			t.Fatal("region at address 0")
		}
		if regions[i].Base%regionAlign != 0 {
			t.Fatalf("region %s not aligned", regions[i].Name)
		}
		for j := i + 1; j < len(regions); j++ {
			ri, rj := regions[i], regions[j]
			if ri.Base < rj.End() && rj.Base < ri.End() {
				t.Fatalf("regions %s and %s overlap", ri.Name, rj.Name)
			}
		}
	}
}

func TestAddrSpaceFindRegion(t *testing.T) {
	s := NewAddrSpace()
	a := s.Reserve("a", 100)
	if got, ok := s.FindRegion(a.Base + 50); !ok || got.Name != "a" {
		t.Fatal("FindRegion missed interior address")
	}
	if _, ok := s.FindRegion(a.Base + 100); ok {
		t.Fatal("FindRegion matched end address")
	}
	if _, ok := s.FindRegion(0); ok {
		t.Fatal("FindRegion matched address 0")
	}
}

// TestFindRegionGaps exercises addresses in the alignment gaps between
// regions: Reserve rounds each base up to the 4 MB boundary, so a region
// whose size is not a multiple of regionAlign leaves a hole before the next
// base. The binary search must reject hole addresses (the candidate region's
// Contains check) rather than blaming the nearest region.
func TestFindRegionGaps(t *testing.T) {
	s := NewAddrSpace()
	// Sizes chosen to leave gaps: none is a multiple of 4 MB.
	regs := []Region{
		s.Reserve("r0", 100),
		s.Reserve("r1", 3<<20),
		s.Reserve("r2", (4<<20)+1),
		s.Reserve("r3", 64),
	}
	for i, r := range regs {
		// Interior, first, and last byte all resolve to the region.
		for _, a := range []Addr{r.Base, r.Base + r.Size/2, r.End() - 1} {
			got, ok := s.FindRegion(a)
			if !ok || got.Name != r.Name {
				t.Fatalf("FindRegion(%#x) = %v,%v, want %s", a, got.Name, ok, r.Name)
			}
		}
		// The gap between this region's end and the next 4 MB boundary
		// belongs to nobody.
		for _, a := range []Addr{r.End(), r.Base + (r.Size+regionAlign-1)&^(regionAlign-1) - 1} {
			if a < r.End() {
				continue // size was exactly aligned; no gap byte here
			}
			if got, ok := s.FindRegion(a); ok {
				t.Fatalf("FindRegion(%#x) in gap after %s matched %s", a, r.Name, got.Name)
			}
		}
		_ = i
	}
	// Below the first region and far past the last.
	if _, ok := s.FindRegion(regionAlign - 1); ok {
		t.Fatal("FindRegion matched below the first region")
	}
	if _, ok := s.FindRegion(regs[3].End() + 100*regionAlign); ok {
		t.Fatal("FindRegion matched past the last region")
	}
}

// TestFindRegionMatchesLinearScan cross-checks the binary search against the
// obvious linear scan over a larger reservation set.
func TestFindRegionMatchesLinearScan(t *testing.T) {
	s := NewAddrSpace()
	sizes := []uint64{100, 1 << 20, 3 << 20, (4 << 20) + 7, 64, 12<<20 + 1, 9, 2 << 20}
	for i, sz := range sizes {
		s.Reserve(fmt.Sprintf("r%d", i), sz)
	}
	linear := func(a Addr) (Region, bool) {
		for _, r := range s.regions {
			if r.Contains(a) {
				return r, true
			}
		}
		return Region{}, false
	}
	var probes []Addr
	for _, r := range s.regions {
		probes = append(probes, r.Base-1, r.Base, r.Base+1, r.Base+r.Size/2, r.End()-1, r.End(), r.End()+regionAlign/2)
	}
	probes = append(probes, 0, 1, regionAlign/2, s.regions[len(sizes)-1].End()+42*regionAlign)
	for _, a := range probes {
		wantR, wantOK := linear(a)
		gotR, gotOK := s.FindRegion(a)
		if gotOK != wantOK || gotR != wantR {
			t.Fatalf("FindRegion(%#x) = %v,%v; linear scan says %v,%v", a, gotR, gotOK, wantR, wantOK)
		}
	}
}

func TestReservePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAddrSpace().Reserve("zero", 0)
}

func TestRegionContains(t *testing.T) {
	r := Region{Name: "x", Base: 128, Size: 64}
	if !r.Contains(128) || !r.Contains(191) || r.Contains(192) || r.Contains(127) {
		t.Fatal("Contains boundaries wrong")
	}
}

func TestAccessTypeString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || IFetch.String() != "ifetch" {
		t.Fatal("access type names wrong")
	}
}
