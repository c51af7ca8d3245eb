package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// linear interpolation between closest ranks; NaN on an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile returns the highest rung of tailLadder that still
// has at least ten of n samples beyond it — the tail a sample of that
// size supports. A sample too small for any rung reports its median.
func highestPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= 1000-1e-6 { // n·(1−p/100) ≥ 10, without the rounding of 1−p/100
			best = p
		}
	}
	return best
}

// sample is a set of timings of one kind.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s sample) p(p float64) float64 { return percentile(s.sorted(), p) }

// memCounters is the slice of runtime.MemStats the benchmark reports.
type memCounters struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcs: m.NumGC}
}

func (a memCounters) since(b memCounters) memCounters {
	return memCounters{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, gcs: a.gcs - b.gcs}
}

// peakRSSMB reads the process high-water resident set (VmHWM) in MB;
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// calibrate times a fixed pure-CPU loop (xorshift over 2^26 steps): the
// in-run yardstick for reading wall-clock figures across machines.
func calibrate() (ms float64, sink uint64) {
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < 1<<26; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return time.Since(start).Seconds() * 1e3, x
}
