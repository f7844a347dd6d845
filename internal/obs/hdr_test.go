package obs

import (
	"sort"
	"testing"

	"repro/internal/simrand"
)

// oracleQuantile returns the exact order statistic the histogram's Quantile
// bounds: the ceil(q*n)-th smallest sample.
func oracleQuantile(sorted []uint64, q float64) uint64 {
	n := len(sorted)
	rank := int(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// checkAgainstOracle verifies the precision contract for one sample set:
// every quantile is an upper bound on the true order statistic, within a
// relative error of 2^-hdrSubBits, exact in the linear range, and max is
// exact.
func checkAgainstOracle(t *testing.T, name string, samples []uint64) {
	t.Helper()
	var h HDR
	for _, v := range samples {
		h.Record(v)
	}
	sorted := append([]uint64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	if h.Count() != uint64(len(samples)) {
		t.Fatalf("%s: count = %d, want %d", name, h.Count(), len(samples))
	}
	if h.Max() != sorted[len(sorted)-1] {
		t.Fatalf("%s: max = %d, want %d", name, h.Max(), sorted[len(sorted)-1])
	}
	if h.min != sorted[0] {
		t.Fatalf("%s: min = %d, want %d", name, h.min, sorted[0])
	}
	for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0} {
		got := h.Quantile(q)
		want := oracleQuantile(sorted, q)
		if got < want {
			t.Errorf("%s: Quantile(%v) = %d below oracle %d", name, q, got, want)
		}
		// Upper bound: within one sub-bucket of the oracle, and exact in the
		// linear range.
		slack := want >> hdrSubBits
		if got > want+slack {
			t.Errorf("%s: Quantile(%v) = %d exceeds oracle %d by more than %d", name, q, got, want, slack)
		}
		if want < 1<<hdrSubBits && got != want {
			t.Errorf("%s: Quantile(%v) = %d, want exact %d in linear range", name, q, got, want)
		}
	}
}

func TestHDRQuantileVsOracle(t *testing.T) {
	// Sample sets chosen to straddle bucket boundaries: exact powers of two,
	// the values just around them, linear-range values, and wide spreads.
	sets := map[string][]uint64{
		"linear":     {0, 1, 2, 3, 5, 8, 13, 21, 31},
		"boundaries": {31, 32, 33, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025},
		"powers":     {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 1 << 20, 1 << 40},
		"identical":  {40_000, 40_000, 40_000, 40_000},
		"single":     {123_456_789},
	}
	for name, s := range sets {
		checkAgainstOracle(t, name, s)
	}

	// Randomized sweep over several magnitudes, deterministic seed.
	rng := simrand.New(42)
	for _, scale := range []uint64{1 << 6, 1 << 12, 1 << 20, 1 << 32} {
		samples := make([]uint64, 0, 2000)
		for i := 0; i < 2000; i++ {
			samples = append(samples, uint64(rng.Int63n(int64(scale))))
		}
		checkAgainstOracle(t, "random", samples)
	}
}

func TestHDRBucketEdges(t *testing.T) {
	// Every value maps into a bucket whose upper edge covers it, and bucket
	// indices are monotone across boundaries.
	vals := []uint64{0, 1, 31, 32, 33, 63, 64, 65, 1<<20 - 1, 1 << 20, 1<<20 + 1, 1<<63 - 1, 1 << 63}
	for _, v := range vals {
		b := hdrBucket(v)
		if edge := hdrUpperEdge(b); v > edge {
			t.Errorf("value %d maps to bucket %d with upper edge %d", v, b, edge)
		}
		if v > 0 {
			if pb := hdrBucket(v - 1); pb > b {
				t.Errorf("bucket index not monotone at %d: %d then %d", v, pb, b)
			}
		}
	}
	// Relative width bound: bucket width / lower edge <= 2^-hdrSubBits.
	for _, v := range []uint64{1 << 10, 1 << 30, 1 << 50} {
		b := hdrBucket(v)
		lo, hi := v, hdrUpperEdge(b)
		if width := hi - lo; width<<hdrSubBits >= lo+lo {
			t.Errorf("bucket at %d too wide: [%d,%d]", v, lo, hi)
		}
	}
}

func TestHDRCountLE(t *testing.T) {
	var h HDR
	for v := uint64(0); v < 32; v++ {
		h.Record(v)
	}
	// Linear range is exact.
	if got := h.CountLE(10); got != 11 {
		t.Fatalf("CountLE(10) = %d, want 11", got)
	}
	h.Record(1_000_000)
	h.Record(2_000_000)
	if got := h.CountLE(31); got != 32 {
		t.Fatalf("CountLE(31) = %d, want 32", got)
	}
	if got := h.CountLE(3_000_000); got != 34 {
		t.Fatalf("CountLE(3_000_000) = %d, want 34", got)
	}
}

func TestHDRReset(t *testing.T) {
	var h HDR
	h.Record(100)
	h.Record(200_000)
	h.Reset()
	if h.Count() != 0 || h.sum != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("reset histogram not empty: %+v", h.Summarize())
	}
	h.Record(7)
	if h.Quantile(1) != 7 || h.Count() != 1 {
		t.Fatal("histogram unusable after reset")
	}
}

// TestHDRMeanAndMedian: count and mean are exact, and the median of
// 1..1000 is bounded within one sub-bucket.
func TestHDRMeanAndMedian(t *testing.T) {
	var h HDR
	for i := uint64(1); i <= 1000; i++ {
		h.Record(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 500.5 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if q := h.Quantile(0.5); q < 500 || q > 500+500>>hdrSubBits {
		t.Fatalf("median bound %d not within one sub-bucket of 500", q)
	}
}

func TestHDRSub(t *testing.T) {
	var base HDR
	for _, v := range []uint64{1, 10, 100} {
		base.Record(v)
	}
	later := base.Clone()
	for _, v := range []uint64{1000, 1000, 2000} {
		later.Record(v)
	}
	d := later.Sub(&base)
	if d.Count() != 3 || d.sum != 4000 {
		t.Fatalf("delta count/sum = %d/%d, want 3/4000", d.Count(), d.sum)
	}
	// The delta holds only the later samples: its median is 1000 within a
	// sub-bucket, and its p99 clamps to the later maximum.
	if q := d.Quantile(0.5); q < 1000 || q > 1000+1000>>hdrSubBits {
		t.Fatalf("delta median = %d, want ~1000", q)
	}
	if q := d.Quantile(0.99); q != 2000 {
		t.Fatalf("delta p99 = %d, want the later max 2000", q)
	}
	if later.Count() != 6 || base.Count() != 3 {
		t.Fatal("Sub modified an argument")
	}
	if n := later.Sub(nil); n.Count() != 6 || n == later {
		t.Fatal("Sub(nil) must return a copy of the receiver")
	}
}

// TestHDRSubSaturates: a base larger than the receiver — as after a Reset
// between the two captures — yields an empty delta, not wrapped counts.
func TestHDRSubSaturates(t *testing.T) {
	var h HDR
	for _, v := range []uint64{5, 5000, 90_000} {
		h.Record(v)
	}
	base := h.Clone()
	h.Reset()
	h.Record(5)
	d := h.Sub(base)
	if d.Count() != 0 || d.sum != 0 || d.Quantile(0.99) != 0 {
		t.Fatalf("saturating delta = %+v, want empty", d.Summarize())
	}
	if z := base.Sub(base.Clone()); z.Count() != 0 {
		t.Fatalf("self delta count = %d, want 0", z.Count())
	}
}

func BenchmarkHDRRecord(b *testing.B) {
	rng := simrand.New(1)
	vals := make([]uint64, 4096)
	for i := range vals {
		vals[i] = uint64(rng.Int63n(1 << 28))
	}
	var h HDR
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vals[i&4095])
	}
}
