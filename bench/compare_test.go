package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSummarizeMatchesPython pins the quartiles to Python's
// statistics.quantiles(values, n=4), which the benchmark's spread rule uses.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		in             []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		s := summarize(tc.in, "s")
		if s.Q1 != tc.q1 || s.Median != tc.median || s.Q3 != tc.q3 || s.N != len(tc.in) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.in, s, tc.q1, tc.median, tc.q3)
		}
	}
}

// TestCompareVerdicts compares two captured results files under fixed
// bounds: a change within the bound is "same", beyond it "worse" or
// "better" by the metric's direction, and "unresolved" when a side's own
// spread exceeds the bound.
func TestCompareVerdicts(t *testing.T) {
	a, err := readResults("testdata/compare-a.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := readResults("testdata/compare-b.json")
	if err != nil {
		t.Fatal(err)
	}
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "sim_minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.1},
		{Name: "host_ns_per_ref", Unit: "ns/ref", Better: "lower", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "jbb-8p"})

	var out bytes.Buffer
	compare(spec, a, b, &out)
	want := map[string]string{
		"wall_s":           "same",
		"cpu_s":            "worse",
		"sim_minstr_per_s": "better",
		"host_ns_per_ref":  "unresolved",
		"setup_s":          "same",
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		if got := f[len(f)-1]; got != want[f[1]] {
			t.Errorf("%s: verdict %s, want %s\n%s", f[1], got, want[f[1]], line)
		}
		delete(want, f[1])
	}
	if len(want) > 0 {
		t.Errorf("no verdict printed for %v", want)
	}
}
