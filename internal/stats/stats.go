// Package stats is the measurement toolkit of the simulator: scalar
// summaries with error bars, seed lists, and significance tests.
//
// Every result the simulator reports follows the variability methodology of
// Alameldeen & Wood (HPCA 2003), which the paper adopts: each configuration
// is run under several seeds and reported as mean ± standard deviation.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates scalar observations and reports their moments.
// The zero value is ready to use.
type Summary struct {
	n     int
	sum   float64
	sumsq float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.n++
	s.sum += v
	s.sumsq += v * v
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0 for
// fewer than two observations.
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	mean := s.Mean()
	variance := (s.sumsq - float64(s.n)*mean*mean) / float64(s.n-1)
	if variance < 0 { // numerical noise
		return 0
	}
	return math.Sqrt(variance)
}

// String formats the summary as "mean ± stddev".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean(), s.StdDev())
}
