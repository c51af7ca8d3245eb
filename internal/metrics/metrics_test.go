package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStatsBasics(t *testing.T) {
	var s Stats
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("empty Stats should be NaN")
	}
	if s.CI95() != 0 {
		t.Error("empty CI95 should be 0")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Known population: sample variance = 32/7.
	if got, want := s.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("extrema = [%v,%v], want [2,9]", s.Min(), s.Max())
	}
	if s.CI95() <= 0 {
		t.Errorf("CI95 = %v, want > 0", s.CI95())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestStatsMatchesDirectComputation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 2
		var s Stats
		xs := make([]float64, count)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			s.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(count)
		varSum := 0.0
		for _, x := range xs {
			varSum += (x - mean) * (x - mean)
		}
		wantVar := varSum / float64(count-1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Variance()-wantVar) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Percentile(50)) || !math.IsNaN(s.Mean()) {
		t.Error("empty Sample should be NaN")
	}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("P50 = %v, want 50.5", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %v, want 100", got)
	}
	if got := s.Percentile(99); got < 98 || got > 100 {
		t.Errorf("P99 = %v, want ~99", got)
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %v, want 50.5", got)
	}
	if s.N() != 100 {
		t.Errorf("N = %d, want 100", s.N())
	}
}

func TestSampleUnsortedInsertions(t *testing.T) {
	var s Sample
	for _, x := range []float64{9, 1, 5, 3, 7} {
		s.Add(x)
	}
	if got := s.Percentile(50); got != 5 {
		t.Errorf("P50 = %v, want 5", got)
	}
	s.Add(0) // re-sorts lazily
	if got := s.Percentile(0); got != 0 {
		t.Errorf("P0 after insert = %v, want 0", got)
	}
}
