package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 1)
	b := NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams produced %d/100 identical draws", same)
	}
}

func TestDeriveDeterministic(t *testing.T) {
	a := New(99).Derive(5)
	b := New(99).Derive(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Derive is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(6)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.3 {
		t.Fatalf("exponential mean %v too far from 10", mean)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(9)
	z := NewZipf(r, 1000, 1.0)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[100] {
		t.Fatalf("Zipf not monotone-ish: c0=%d c10=%d c100=%d", counts[0], counts[10], counts[100])
	}
	// Rank 0 should hold roughly 1/H(1000) ~ 13% of the mass for s=1.
	frac := float64(counts[0]) / n
	if frac < 0.10 || frac > 0.17 {
		t.Fatalf("Zipf rank-0 mass %v outside [0.10,0.17]", frac)
	}
}

func TestZipfDomain(t *testing.T) {
	r := New(10)
	z := NewZipf(r, 5, 1.2)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 5 {
			t.Fatalf("Zipf out of domain: %d", v)
		}
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[h] = true
	}
}

func TestQuickIntnInRange(t *testing.T) {
	r := New(11)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickZipfInRange(t *testing.T) {
	r := New(12)
	f := func(n uint8, s uint8) bool {
		domain := int(n%100) + 1
		exp := 0.5 + float64(s%20)/10.0
		z := NewZipf(r, domain, exp)
		v := z.Next()
		return v >= 0 && v < domain
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
