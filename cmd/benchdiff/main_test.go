package main

import (
	"math"
	"testing"

	"github.com/quartz-dcn/quartz/internal/experiments"
)

func TestCompare(t *testing.T) {
	rep := func(events uint64, wall float64) experiments.ExperimentReport {
		return experiments.ExperimentReport{Events: events, WallSecs: wall, EventsPerSec: float64(events) / wall}
	}
	for _, tc := range []struct {
		name     string
		old, new experiments.ExperimentReport
		want     float64
		byWall   bool
	}{
		{"same events, faster", rep(1000, 2), rep(1000, 1), 100, false},
		{"same events, slower", rep(1000, 1), rep(1000, 2), -50, false},
		// Fewer events for the same work in less time: the rate fell
		// 20% but the experiment got 1.6x faster — wall time decides.
		{"fewer events, faster", rep(1000, 2), rep(500, 1.25), 60, true},
		{"fewer events, slower", rep(1000, 1), rep(500, 2), -50, true},
	} {
		got, byWall := compare(tc.old, tc.new)
		if math.Abs(got-tc.want) > 1e-9 || byWall != tc.byWall {
			t.Errorf("%s: delta %.3f%% byWall=%v, want %.3f%% byWall=%v", tc.name, got, byWall, tc.want, tc.byWall)
		}
	}
}
