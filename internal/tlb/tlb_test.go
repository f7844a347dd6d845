package tlb

import (
	"testing"
	"testing/quick"
)

const pageBytes = 1 << pageShift

// page returns the address of the i'th base page.
func page(i int) uint64 { return uint64(i) * pageBytes }

func TestHitAfterMiss(t *testing.T) {
	tl := New()
	if tl.Access(0x12345) != missPenalty {
		t.Fatal("cold access did not pay the refill")
	}
	if tl.Access(0x12346) != 0 {
		t.Fatal("same-page access missed")
	}
	if tl.Misses != 1 || tl.Lookups != 2 {
		t.Fatalf("counters: %d/%d", tl.Misses, tl.Lookups)
	}
}

func TestPageBoundary(t *testing.T) {
	tl := New()
	tl.Access(0)
	if tl.Access(pageBytes-1) != 0 {
		t.Fatal("last byte of page missed")
	}
	if tl.Access(pageBytes) == 0 {
		t.Fatal("next page hit")
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := New()
	for i := 0; i < entries; i++ {
		tl.Access(page(i))
	}
	tl.Access(page(0))       // refresh 0; 1 becomes LRU
	tl.Access(page(entries)) // evicts 1
	if tl.Access(page(0)) != 0 {
		t.Fatal("page 0 evicted despite being MRU")
	}
	if tl.Access(page(1)) == 0 {
		t.Fatal("page 1 survived eviction")
	}
}

// TestReach: the TLB maps entries pages at once. Cycling through entries
// pages hits on every pass after the first; one page more, and true LRU
// misses on every access.
func TestReach(t *testing.T) {
	for _, pages := range []int{entries, entries + 1} {
		tl := New()
		pass := func() {
			for i := 0; i < pages; i++ {
				tl.Access(page(i))
			}
		}
		pass()
		tl.ResetStats()
		pass()
		want := uint64(0)
		if pages > entries {
			want = uint64(pages)
		}
		if tl.Misses != want {
			t.Errorf("%d pages cycled: %d misses, want %d", pages, tl.Misses, want)
		}
	}
}

// TestBeyondReachThrashes is the §6 observation in miniature: random
// pointer chasing over an 8 MB working set, far beyond the base-page TLB's
// 64 KB reach, thrashes it, while the same chase inside the reach never
// misses once warm. ISM's 4 MB pages bring the whole heap within reach,
// which is why an ISM machine models no TLB.
func TestBeyondReachThrashes(t *testing.T) {
	run := func(span uint64) float64 {
		tl := New()
		r := uint64(99)
		for i := 0; i < 200000; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			tl.Access((r >> 30) % span)
		}
		tl.ResetStats()
		for i := 0; i < 200000; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			tl.Access((r >> 30) % span)
		}
		return float64(tl.Misses) / float64(tl.Lookups)
	}
	if beyond := run(8 << 20); beyond < 0.5 {
		t.Fatalf("an 8MB set should thrash the base TLB: miss ratio %v", beyond)
	}
	if within := run(entries * pageBytes); within != 0 {
		t.Fatalf("a set within reach should not miss once warm: miss ratio %v", within)
	}
}

func TestResetStatsKeepsWarmth(t *testing.T) {
	tl := New()
	tl.Access(0x4000)
	tl.ResetStats()
	if tl.Lookups != 0 || tl.Misses != 0 {
		t.Fatal("stats not reset")
	}
	if tl.Access(0x4001) != 0 {
		t.Fatal("reset cleared translations")
	}
}

func TestQuickSamePageAlwaysHitsAfterFill(t *testing.T) {
	tl := New()
	f := func(a uint32, off uint16) bool {
		base := uint64(a) << pageShift
		tl.Access(base)
		return tl.Access(base+uint64(off)%pageBytes) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
