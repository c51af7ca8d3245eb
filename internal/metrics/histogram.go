package metrics

// LatencyHistogram is the O(buckets) replacement for an exact sample on
// million-packet runs: log-spaced buckets give every quantile a bounded
// *relative* error (DDSketch-style), so p50 of a 3 µs ULL path and p999
// of a 500 µs congested tree path are equally trustworthy from the same
// instrument. It never grows; the tests' Sample, which keeps every
// observation, is its exact oracle.

import (
	"math"
	"sync/atomic"
)

// histAlpha is the relative accuracy target: any quantile estimate q̂
// satisfies |q̂ - q| <= histAlpha * q. 2% leaves comfortable margin
// under the repo's 5% acceptance bound while keeping the bucket count
// (and the per-histogram footprint, ~9 KB) small.
const histAlpha = 0.02

// histGamma is the bucket growth factor: bucket i covers
// (gamma^(i-1), gamma^i].
var (
	histGamma    = (1 + histAlpha) / (1 - histAlpha)
	histLogGamma = math.Log(histGamma)
)

// Bucket index range. With gamma ≈ 1.0408, index = ceil(ln x / ln
// gamma) spans roughly x ∈ [1e-6, 3e12]: nanoseconds through hours
// when observing microseconds, bytes through terabytes when observing
// sizes. Observations outside the range clamp into the edge buckets
// (Count/Sum/Min/Max stay exact; only their quantile position
// saturates).
const (
	histMinIdx = -346 // gamma^-346 ≈ 9.6e-7
	histMaxIdx = 718  // gamma^718  ≈ 3.4e12
	numBuckets = histMaxIdx - histMinIdx + 1
)

// LatencyHistogram records a stream of positive observations into
// log-spaced buckets. The zero value is NOT ready; use
// NewLatencyHistogram (the Registry does). Safe for concurrent use:
// Observe is two atomic adds plus two CAS extrema updates.
type LatencyHistogram struct {
	buckets [numBuckets]atomic.Uint64
	// zero counts observations <= 0 (quantile position: 0).
	zero    atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	minBits atomic.Uint64 // float64 bits; math.Inf(1) when empty
	maxBits atomic.Uint64 // float64 bits; math.Inf(-1) when empty
}

// NewLatencyHistogram returns an empty histogram.
func NewLatencyHistogram() *LatencyHistogram {
	h := &LatencyHistogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps a positive observation to its bucket slot.
func bucketIndex(x float64) int {
	i := int(math.Ceil(math.Log(x) / histLogGamma))
	if i < histMinIdx {
		i = histMinIdx
	}
	if i > histMaxIdx {
		i = histMaxIdx
	}
	return i - histMinIdx
}

// bucketValue returns the representative value of bucket slot i: the
// midpoint 2·gamma^i/(gamma+1) of (gamma^(i-1), gamma^i], which is
// what bounds the relative error at alpha.
func bucketValue(slot int) float64 {
	i := slot + histMinIdx
	return 2 * math.Pow(histGamma, float64(i)) / (histGamma + 1)
}

// Observe records one observation.
func (h *LatencyHistogram) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	h.count.Add(1)
	addFloat(&h.sumBits, x)
	casMin(&h.minBits, x)
	casMax(&h.maxBits, x)
	if x <= 0 {
		h.zero.Add(1)
		return
	}
	h.buckets[bucketIndex(x)].Add(1)
}

// addFloat atomically adds x to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, x float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

func casMin(bits *atomic.Uint64, x float64) {
	for {
		old := bits.Load()
		if x >= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(x)) {
			return
		}
	}
}

func casMax(bits *atomic.Uint64, x float64) {
	for {
		old := bits.Load()
		if x <= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(x)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *LatencyHistogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *LatencyHistogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Min returns the smallest observation, exactly (NaN if empty).
func (h *LatencyHistogram) Min() float64 {
	if h.Count() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation, exactly (NaN if empty).
func (h *LatencyHistogram) Max() float64 {
	if h.Count() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-th quantile (0 <= q <= 1) with relative
// error bounded by 2% (histAlpha). NaN if empty. Under concurrent
// writes the estimate reflects some recent state — fine for a live
// exporter watching a run.
func (h *LatencyHistogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is 1-based: the k-th smallest observation.
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	// The extrema are tracked exactly; serve the edge ranks from them.
	if rank >= n {
		return math.Float64frombits(h.maxBits.Load())
	}
	cum := h.zero.Load()
	if rank <= cum {
		return 0
	}
	if rank == cum+1 && cum == 0 {
		return math.Float64frombits(h.minBits.Load())
	}
	for slot := 0; slot < numBuckets; slot++ {
		c := h.buckets[slot].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			v := bucketValue(slot)
			// Clamp to the exact extrema: the edge buckets are wide and
			// the true min/max are known.
			if min := math.Float64frombits(h.minBits.Load()); v < min {
				v = min
			}
			if max := math.Float64frombits(h.maxBits.Load()); v > max {
				v = max
			}
			return v
		}
	}
	// Writers raced past the count we loaded; return the max seen.
	return math.Float64frombits(h.maxBits.Load())
}

// Buckets returns the non-empty buckets in ascending order, each with
// its upper bound gamma^i and its own (non-cumulative) count. The zero
// bucket, if populated, appears first with upper bound 0.
func (h *LatencyHistogram) Buckets() []Bucket {
	var out []Bucket
	if z := h.zero.Load(); z > 0 {
		out = append(out, Bucket{UpperBound: 0, Count: z})
	}
	for slot := 0; slot < numBuckets; slot++ {
		if c := h.buckets[slot].Load(); c > 0 {
			out = append(out, Bucket{
				UpperBound: math.Pow(histGamma, float64(slot+histMinIdx)),
				Count:      c,
			})
		}
	}
	return out
}
