package metrics

import (
	"math"
	"sort"
)

// Sample keeps all observations for percentile queries. The zero value
// is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean (NaN if empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics. NaN if empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[len(s.xs)-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}
