package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specPath is BENCHMARK.json, relative to the bench directory the binary
// runs in.
const specPath = "../BENCHMARK.json"

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// summary is a metric over a set of reps: median, quartiles and count.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func summarize(values []float64, unit string) summary {
	s := summary{Unit: unit, N: len(values)}
	if len(values) == 0 {
		return s
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		s.Median = v[n/2]
	} else {
		s.Median = (v[n/2-1] + v[n/2]) / 2
	}
	if n == 1 {
		s.Q1, s.Q3 = v[0], v[0]
		return s
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// results is the results.json a suite run writes.
type results struct {
	Seed      uint64                     `json:"seed"`
	Workloads map[string]workloadResults `json:"workloads"`
}

type workloadResults struct {
	Fingerprint string             `json:"fingerprint"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]summary `json:"metrics"`
}

func readResults(path string) (*results, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict compares a metric's medians between a base run a and a changed run
// b. The change is worse or better when the medians differ by more than the
// metric's bound, and unresolved when either run's own spread exceeds it.
func verdict(m metricSpec, a, b summary) string {
	if a.spread() > m.Bound || b.spread() > m.Bound || a.Median == 0 {
		return "unresolved"
	}
	worse := (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case worse < -m.Bound:
		return "better"
	}
	return "same"
}

// compare prints, per workload and end-to-end metric, both runs' medians and
// quartiles and the verdict.
func compare(spec *benchSpec, a, b *results, w io.Writer) {
	fmt.Fprintf(w, "%-18s %-17s %27s %27s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	for _, wl := range spec.Workloads {
		ra, oka := a.Workloads[wl.Name]
		rb, okb := b.Workloads[wl.Name]
		if !oka || !okb {
			fmt.Fprintf(w, "%-18s missing from one side\n", wl.Name)
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			fmt.Fprintf(w, "%-18s %-17s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g]  %s\n",
				wl.Name, m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, verdict(m, sa, sb))
		}
		if ra.Fingerprint != rb.Fingerprint {
			fmt.Fprintf(w, "%-18s fingerprint %s -> %s\n", wl.Name, ra.Fingerprint, rb.Fingerprint)
		}
	}
}
