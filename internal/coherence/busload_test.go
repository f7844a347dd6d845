package coherence

import "testing"

func testLoadConfig() LoadConfig {
	return LoadConfig{
		WindowCycles: 1000, Buckets: 10,
		LineCycles: 10, WriteWeight: 2,
		InterventionStartUtil: 0.5, InterventionMaxFrac: 0.8,
	}
}

// counts returns the window's read (GetS) and write (GetM) transaction
// totals.
func counts(lt *LoadTracker) (reads, writes uint64) { return lt.reads, lt.writes }

func TestLoadTrackerCounts(t *testing.T) {
	lt := NewLoadTracker(testLoadConfig())
	lt.Record(0, false)
	lt.Record(10, false)
	lt.Record(20, true)
	r, w := counts(lt)
	if r != 2 || w != 1 {
		t.Fatalf("Counts = %d,%d, want 2,1", r, w)
	}
}

func TestLoadTrackerRetiresOldBuckets(t *testing.T) {
	lt := NewLoadTracker(testLoadConfig())
	// Fill bucket 0 (cycles 0-99), then walk the head forward one full
	// window: the early traffic must retire.
	lt.Record(0, false)
	lt.Record(50, true)
	for now := uint64(100); now < 1100; now += 100 {
		lt.Record(now, false)
	}
	r, w := counts(lt)
	if w != 0 {
		t.Fatalf("write from retired bucket still counted (r=%d w=%d)", r, w)
	}
	// Head is at cycle 1000-1099; buckets 100..1099 are live = 10 reads.
	if r != 10 {
		t.Fatalf("reads = %d, want 10", r)
	}
}

func TestLoadTrackerSkipsWholeWindow(t *testing.T) {
	lt := NewLoadTracker(testLoadConfig())
	for now := uint64(0); now < 1000; now += 10 {
		lt.Record(now, true)
	}
	// A gap longer than the window clears everything.
	lt.Record(1_000_000, false)
	r, w := counts(lt)
	if r != 1 || w != 0 {
		t.Fatalf("Counts after idle gap = %d,%d, want 1,0", r, w)
	}
}

func TestLoadTrackerClampsBackwardsTime(t *testing.T) {
	lt := NewLoadTracker(testLoadConfig())
	lt.Record(950, false)
	// A lagging CPU's earlier timestamp lands in the current bucket, never
	// un-advancing the window.
	lt.Record(100, true)
	r, w := counts(lt)
	if r != 1 || w != 1 {
		t.Fatalf("Counts = %d,%d, want 1,1", r, w)
	}
	lt.Record(951, false)
	if r2, _ := counts(lt); r2 != 2 {
		t.Fatalf("tracker lost the window position after a backwards stamp")
	}
}

func TestLoadTrackerUtilization(t *testing.T) {
	lt := NewLoadTracker(testLoadConfig())
	if u := lt.Utilization(); u != 0 {
		t.Fatalf("empty utilization = %v", u)
	}
	// 30 reads × 10 cycles + 10 writes × 2 × 10 cycles = 500 of 1000.
	for i := 0; i < 30; i++ {
		lt.Record(uint64(i), false)
	}
	for i := 0; i < 10; i++ {
		lt.Record(uint64(i), true)
	}
	if u := lt.Utilization(); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	// Utilization may exceed 1 under overload.
	for i := 0; i < 100; i++ {
		lt.Record(0, true)
	}
	if u := lt.Utilization(); u <= 1 {
		t.Fatalf("overload utilization = %v, want > 1", u)
	}
}

func TestInterveneOffBelowStart(t *testing.T) {
	lt := NewLoadTracker(testLoadConfig())
	// Utilization 0.4 < start 0.5: no interventions, ever.
	for i := 0; i < 40; i++ {
		lt.Record(0, false)
	}
	for i := 0; i < 10_000; i++ {
		if lt.Intervene() {
			t.Fatal("intervened below the start utilization")
		}
	}
	if lt.Interventions() != 0 {
		t.Fatal("intervention counter moved below start")
	}
}

func TestInterveneFractionMatchesRamp(t *testing.T) {
	lt := NewLoadTracker(testLoadConfig())
	// Utilization 0.75: frac = (0.75-0.5)/(1-0.5) × 0.8 = 0.4.
	for i := 0; i < 75; i++ {
		lt.Record(0, false)
	}
	const n = 10_000
	var hits int
	for i := 0; i < n; i++ {
		if lt.Intervene() {
			hits++
		}
	}
	if hits < 3990 || hits > 4010 {
		t.Fatalf("intervened %d of %d eligible, want ~4000", hits, n)
	}
	if lt.Interventions() != uint64(hits) {
		t.Fatalf("counter %d != observed %d", lt.Interventions(), hits)
	}
	lt.ResetInterventions()
	if lt.Interventions() != 0 {
		t.Fatal("ResetInterventions did not zero the counter")
	}
}

func TestInterveneCapsAtMaxFrac(t *testing.T) {
	cfg := testLoadConfig()
	lt := NewLoadTracker(cfg)
	// Overload (utilization > 1): the ramp clamps at the max fraction.
	for i := 0; i < 300; i++ {
		lt.Record(0, true)
	}
	const n = 10_000
	var hits int
	for i := 0; i < n; i++ {
		if lt.Intervene() {
			hits++
		}
	}
	want := int(cfg.InterventionMaxFrac * n)
	if hits < want-10 || hits > want+10 {
		t.Fatalf("intervened %d of %d, want ~%d (max frac cap)", hits, n, want)
	}
}

func TestInterveneDisabled(t *testing.T) {
	cfg := testLoadConfig()
	cfg.InterventionStartUtil = 2 // start ≥ 1 disables
	lt := NewLoadTracker(cfg)
	for i := 0; i < 300; i++ {
		lt.Record(0, true)
	}
	for i := 0; i < 1000; i++ {
		if lt.Intervene() {
			t.Fatal("intervened with start ≥ 1")
		}
	}
	cfg = testLoadConfig()
	cfg.InterventionMaxFrac = 0
	lt = NewLoadTracker(cfg)
	for i := 0; i < 300; i++ {
		lt.Record(0, true)
	}
	for i := 0; i < 1000; i++ {
		if lt.Intervene() {
			t.Fatal("intervened with zero max fraction")
		}
	}
}

func TestLoadTrackerDeterministic(t *testing.T) {
	run := func() (uint64, uint64, uint64, float64) {
		lt := NewLoadTracker(testLoadConfig())
		var iv uint64
		for i := 0; i < 5000; i++ {
			now := uint64(i * 7 % 4096) // deliberately non-monotonic
			lt.Record(now, i%3 == 0)
			if i%2 == 0 && lt.Intervene() {
				iv++
			}
		}
		r, w := counts(lt)
		return r, w, iv, lt.Utilization()
	}
	r1, w1, iv1, u1 := run()
	r2, w2, iv2, u2 := run()
	if r1 != r2 || w1 != w2 || iv1 != iv2 || u1 != u2 {
		t.Fatalf("tracker not deterministic: (%d,%d,%d,%v) vs (%d,%d,%d,%v)",
			r1, w1, iv1, u1, r2, w2, iv2, u2)
	}
}

func TestNewLoadTrackerPanicsOnDegenerate(t *testing.T) {
	cases := []LoadConfig{
		{WindowCycles: 0, Buckets: 4, LineCycles: 1, WriteWeight: 1},
		{WindowCycles: 100, Buckets: 1, LineCycles: 1, WriteWeight: 1},
		{WindowCycles: 3, Buckets: 4, LineCycles: 1, WriteWeight: 1},
		{WindowCycles: 100, Buckets: 4, LineCycles: 0, WriteWeight: 1},
		{WindowCycles: 100, Buckets: 4, LineCycles: 1, WriteWeight: 0},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewLoadTracker(c)
		}()
	}
}

// BenchmarkLoadTrackerRecord pins the per-transaction cost of the sliding
// window: every bus transaction under -memmodel loaded pays one Record.
func BenchmarkLoadTrackerRecord(b *testing.B) {
	lt := NewLoadTracker(LoadConfig{
		WindowCycles: 131_072, Buckets: 16, LineCycles: 24, WriteWeight: 1.6,
		InterventionStartUtil: 0.35, InterventionMaxFrac: 0.85,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.Record(uint64(i)*40, i&3 == 0)
	}
}
