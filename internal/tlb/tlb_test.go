package tlb

import (
	"testing"
	"testing/quick"
)

// basePages is the UltraSPARC II dTLB with 8 KB base pages; ismPages the
// same TLB with Solaris ISM's 4 MB pages. The miss penalty is the full
// software refill on a loaded machine: the trap, the TSB probe and the
// hash-table walk on a TSB miss.
var (
	basePages = Config{Entries: 64, PageBytes: 8 << 10, MissPenalty: 260}
	ismPages  = Config{Entries: 64, PageBytes: 4 << 20, MissPenalty: 260}
)

func TestHitAfterMiss(t *testing.T) {
	tl := New(basePages)
	if tl.Access(0x12345) == 0 {
		t.Fatal("cold access hit")
	}
	if tl.Access(0x12346) != 0 {
		t.Fatal("same-page access missed")
	}
	if tl.Misses != 1 || tl.Lookups != 2 {
		t.Fatalf("counters: %d/%d", tl.Misses, tl.Lookups)
	}
}

func TestPageBoundary(t *testing.T) {
	tl := New(Config{Entries: 4, PageBytes: 8 << 10, MissPenalty: 40})
	tl.Access(0)
	if tl.Access(8<<10-1) != 0 {
		t.Fatal("last byte of page missed")
	}
	if tl.Access(8<<10) == 0 {
		t.Fatal("next page hit")
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := New(Config{Entries: 2, PageBytes: 8 << 10, MissPenalty: 40})
	p := func(i uint64) uint64 { return i * (8 << 10) }
	tl.Access(p(0))
	tl.Access(p(1))
	tl.Access(p(0)) // refresh 0; 1 becomes LRU
	tl.Access(p(2)) // evicts 1
	if tl.Access(p(0)) != 0 {
		t.Fatal("page 0 evicted despite being MRU")
	}
	if tl.Access(p(1)) == 0 {
		t.Fatal("page 1 survived eviction")
	}
}

// TestReach: the TLB maps Entries pages at once. Cycling through Entries
// pages hits on every pass after the first; one page more, and true LRU
// misses on every access.
func TestReach(t *testing.T) {
	for _, cfg := range []Config{basePages, ismPages} {
		for _, pages := range []int{cfg.Entries, cfg.Entries + 1} {
			tl := New(cfg)
			pass := func() {
				for i := 0; i < pages; i++ {
					tl.Access(uint64(i) * cfg.PageBytes)
				}
			}
			pass()
			tl.ResetStats()
			pass()
			want := uint64(0)
			if pages > cfg.Entries {
				want = uint64(pages)
			}
			if tl.Misses != want {
				t.Errorf("%d-byte pages, %d pages cycled: %d misses, want %d", cfg.PageBytes, pages, tl.Misses, want)
			}
		}
	}
}

// TestISMEliminatesThrashing is the §6 observation in miniature: a working
// set beyond the base TLB's 512 KB reach thrashes 8 KB pages but fits
// easily in 4 MB pages.
func TestISMEliminatesThrashing(t *testing.T) {
	run := func(cfg Config) float64 {
		tl := New(cfg)
		r := uint64(99)
		// 8 MB working set, random pointer chasing.
		for i := 0; i < 200000; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			tl.Access((r >> 30) % (8 << 20))
		}
		tl.ResetStats()
		for i := 0; i < 200000; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			tl.Access((r >> 30) % (8 << 20))
		}
		return tl.MissRatio()
	}
	base := run(basePages)
	ism := run(ismPages)
	if base < 0.5 {
		t.Fatalf("base pages should thrash on an 8MB set: miss ratio %v", base)
	}
	if ism > 0.001 {
		t.Fatalf("ISM pages should map 8MB entirely: miss ratio %v", ism)
	}
}

func TestResetStatsKeepsWarmth(t *testing.T) {
	tl := New(basePages)
	tl.Access(0x4000)
	tl.ResetStats()
	if tl.Lookups != 0 || tl.Misses != 0 {
		t.Fatal("stats not reset")
	}
	if tl.Access(0x4001) != 0 {
		t.Fatal("reset cleared translations")
	}
}

func TestBadConfigsPanic(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero-entries": {Entries: 0, PageBytes: 8 << 10},
		"odd-page":     {Entries: 4, PageBytes: 3000},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestQuickSamePageAlwaysHitsAfterFill(t *testing.T) {
	tl := New(basePages)
	f := func(a uint32, off uint16) bool {
		base := uint64(a) << 13 // page-aligned-ish
		tl.Access(base)
		return tl.Access(base+uint64(off)%(8<<10)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
