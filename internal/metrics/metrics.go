// Package metrics provides the statistics used to report experiment
// results: online mean/variance (Welford), percentiles, and the 95%
// confidence intervals the Quartz paper draws as error bars on
// its evaluation figures (§6.1, §7.1). The observability probes of
// internal/netsim aggregate their queue-depth samples with these types.
package metrics

import (
	"fmt"
	"math"
)

// Stats accumulates scalar observations with O(1) memory using
// Welford's online algorithm. The zero value is ready to use.
type Stats struct {
	n          int64
	mean, m2   float64
	min, max   float64
	hasExtrema bool
}

// Add records one observation.
func (s *Stats) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if !s.hasExtrema || x < s.min {
		s.min = x
	}
	if !s.hasExtrema || x > s.max {
		s.max = x
	}
	s.hasExtrema = true
}

// N returns the number of observations.
func (s *Stats) N() int64 { return s.n }

// Mean returns the sample mean (NaN if empty).
func (s *Stats) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Variance returns the unbiased sample variance (NaN if n < 2).
func (s *Stats) Variance() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation (NaN if n < 2).
func (s *Stats) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (NaN if empty).
func (s *Stats) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation (NaN if empty).
func (s *Stats) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// CI95 returns the half-width of the 95% confidence interval of the
// mean under the normal approximation (the paper reports 95% CIs as
// error bars, §6.1). It returns 0 if n < 2.
func (s *Stats) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.n))
}

func (s *Stats) String() string {
	return fmt.Sprintf("n=%d mean=%.3g ±%.2g [%.3g, %.3g]", s.n, s.Mean(), s.CI95(), s.Min(), s.Max())
}
