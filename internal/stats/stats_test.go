package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Sample stddev of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev()-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", s.StdDev(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.StdDev() != 0 || s.N() != 0 {
		t.Fatal("empty summary should be all zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Mean() != 3.5 || s.StdDev() != 0 {
		t.Fatalf("single-sample summary wrong: %v ± %v", s.Mean(), s.StdDev())
	}
}

func TestQuickSummaryBounds(t *testing.T) {
	f := func(vals []float64) bool {
		var s Summary
		for _, v := range vals {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true // sum-of-squares would overflow; out of scope
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9 && s.StdDev() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeedsDistinct(t *testing.T) {
	seeds := Seeds(1, 5)
	if len(seeds) != 5 {
		t.Fatalf("Seeds returned %d", len(seeds))
	}
	for i, s := range seeds {
		for j := i + 1; j < len(seeds); j++ {
			if s == seeds[j] {
				t.Fatal("duplicate seeds")
			}
		}
	}
}

func TestTTestClearDifference(t *testing.T) {
	var a, b Summary
	for _, v := range []float64{10.0, 10.1, 9.9, 10.05} {
		a.Add(v)
	}
	for _, v := range []float64{12.0, 12.1, 11.9, 12.05} {
		b.Add(v)
	}
	tt, df := TTest(&a, &b)
	if math.Abs(tt) < 10 {
		t.Fatalf("t = %v for clearly separated samples", tt)
	}
	if df <= 0 {
		t.Fatalf("df = %v", df)
	}
	if !SignificantlyDifferent(&a, &b) {
		t.Fatal("clear difference not significant")
	}
}

func TestTTestNoDifference(t *testing.T) {
	var a, b Summary
	for _, v := range []float64{10.0, 10.4, 9.6, 10.2} {
		a.Add(v)
		b.Add(v + 0.01)
	}
	if SignificantlyDifferent(&a, &b) {
		t.Fatal("near-identical samples flagged significant")
	}
}

func TestTTestDegenerate(t *testing.T) {
	var a, b Summary
	a.Add(1)
	b.Add(2)
	if tt, df := TTest(&a, &b); tt != 0 || df != 0 {
		t.Fatal("single-sample t-test should be undefined")
	}
	if SignificantlyDifferent(&a, &b) {
		t.Fatal("single samples cannot be significant")
	}
	// Zero-variance pairs.
	var c, d Summary
	c.Add(5)
	c.Add(5)
	d.Add(5)
	d.Add(5)
	if SignificantlyDifferent(&c, &d) {
		t.Fatal("identical constants flagged significant")
	}
}
