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

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(100)
	ts.Add(0, 1)
	ts.Add(99, 1)
	ts.Add(100, 5)
	ts.Add(350, 2)
	bins := ts.Bins()
	want := []float64{2, 5, 0, 2}
	if len(bins) != len(want) {
		t.Fatalf("bins = %v", bins)
	}
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bin %d = %v, want %v", i, bins[i], want[i])
		}
	}
	if ts.MaxBin() != 5 {
		t.Fatalf("MaxBin = %v", ts.MaxBin())
	}
	rate := ts.Rate()
	if rate[1] != 0.05 {
		t.Fatalf("rate[1] = %v", rate[1])
	}
}

func TestTimeSeriesPanicsOnZeroInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTimeSeries(0)
}

func TestShareDistTopShare(t *testing.T) {
	d := NewShareDist()
	d.Add(1, 80)
	d.Add(2, 15)
	d.Add(3, 5)
	if got := d.TopShare(1); math.Abs(got-0.80) > 1e-12 {
		t.Fatalf("TopShare(1) = %v", got)
	}
	if got := d.TopShare(2); math.Abs(got-0.95) > 1e-12 {
		t.Fatalf("TopShare(2) = %v", got)
	}
	if got := d.TopShare(10); got != 1 {
		t.Fatalf("TopShare beyond keys = %v", got)
	}
}

func TestShareDistTouch(t *testing.T) {
	d := NewShareDist()
	d.Add(1, 10)
	d.Touch(2)
	d.Touch(1) // must not reset
	if d.Keys() != 2 {
		t.Fatalf("Keys = %d", d.Keys())
	}
	if d.Total() != 10 {
		t.Fatalf("Total = %d", d.Total())
	}
	if d.TopShare(1) != 1 {
		t.Fatalf("TopShare(1) = %v", d.TopShare(1))
	}
}

func TestShareDistCDFMonotone(t *testing.T) {
	d := NewShareDist()
	for k := uint64(0); k < 500; k++ {
		d.Add(k, k*k+1)
	}
	pts := d.CDF(20)
	if len(pts) == 0 {
		t.Fatal("empty CDF")
	}
	prevShare, prevFrac := 0.0, 0.0
	for _, p := range pts {
		if p.EventShare < prevShare || p.KeyFrac < prevFrac {
			t.Fatalf("CDF not monotone: %+v", pts)
		}
		prevShare, prevFrac = p.EventShare, p.KeyFrac
	}
	last := pts[len(pts)-1]
	if math.Abs(last.EventShare-1) > 1e-12 || math.Abs(last.KeyFrac-1) > 1e-12 {
		t.Fatalf("CDF does not end at (1,1): %+v", last)
	}
}

func TestShareDistTopFractionShare(t *testing.T) {
	d := NewShareDist()
	d.Add(0, 1000) // one very hot key
	for k := uint64(1); k < 1000; k++ {
		d.Add(k, 1)
	}
	// Hottest 0.1% of 1000 keys = 1 key = 1000/1999 of events.
	got := d.TopFractionShare(0.001)
	want := 1000.0 / 1999.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TopFractionShare = %v, want %v", got, want)
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
