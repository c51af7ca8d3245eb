package metrics

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// relErr returns |a-b| / |b|.
func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestLatencyHistogramVsSampleMillion is the acceptance check: over a
// 1M-observation stream shaped like a congested run's latency
// distribution (lognormal body, heavy tail), the histogram's p99 must
// stay within 5% of the exact Sample.Percentile(99) while using
// O(buckets) memory.
func TestLatencyHistogramVsSampleMillion(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := NewLatencyHistogram()
	var exact Sample
	const n = 1_000_000
	for i := 0; i < n; i++ {
		// Lognormal around ~20 µs with a 1% heavy tail out to ~10 ms —
		// the shape of a queueing latency distribution.
		x := math.Exp(3 + 0.8*rng.NormFloat64())
		if rng.Float64() < 0.01 {
			x *= 50 + 100*rng.Float64()
		}
		h.Observe(x)
		exact.Add(x)
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	for _, tc := range []struct {
		q float64
		p float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {0.999, 99.9}} {
		got := h.Quantile(tc.q)
		want := exact.Percentile(tc.p)
		if e := relErr(got, want); e > 0.05 {
			t.Errorf("q%g: histogram %.4g vs exact %.4g (rel err %.2f%% > 5%%)",
				tc.q*100, got, want, 100*e)
		}
	}
	// O(buckets) memory: the struct is fixed-size regardless of n.
	if sz := unsafe.Sizeof(*h); sz > 1<<14 {
		t.Errorf("histogram footprint %d bytes — expected a fixed ~9KB struct", sz)
	}
	if mean := h.Sum() / float64(h.Count()); relErr(mean, exact.Mean()) > 1e-9 {
		t.Errorf("mean drifted: %v vs %v", mean, exact.Mean())
	}
	if h.Min() != exact.Percentile(0) || h.Max() != exact.Percentile(100) {
		t.Errorf("extrema not exact: [%v, %v] vs [%v, %v]",
			h.Min(), h.Max(), exact.Percentile(0), exact.Percentile(100))
	}
}

func TestLatencyHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if !math.IsNaN(h.Quantile(0.5)) || !math.IsNaN(h.Min()) {
		t.Fatal("empty histogram must report NaN")
	}
	if h.Buckets() != nil {
		t.Fatal("empty histogram has no buckets")
	}
}

func TestLatencyHistogramEdges(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(0)    // zero bucket
	h.Observe(-5)   // also zero bucket
	h.Observe(1e20) // clamps into the top bucket
	h.Observe(1e-9) // clamps into the bottom bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantile(0.25); got != 0 {
		t.Errorf("q25 = %v, want 0 (zero bucket)", got)
	}
	// Extrema stay exact even for clamped observations.
	if h.Min() != -5 || h.Max() != 1e20 {
		t.Errorf("extrema [%v, %v], want [-5, 1e20]", h.Min(), h.Max())
	}
	// The top quantile clamps to the exact max rather than the bucket
	// representative.
	if got := h.Quantile(1); got != 1e20 {
		t.Errorf("q100 = %v, want exact max 1e20", got)
	}
}

func TestLatencyHistogramSingleValue(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(42)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if e := relErr(h.Quantile(q), 42); e > histAlpha {
			t.Errorf("q%v = %v, want 42 within %v", q, h.Quantile(q), histAlpha)
		}
	}
}

func BenchmarkLatencyHistogramObserve(b *testing.B) {
	h := NewLatencyHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) + 0.5)
	}
}
