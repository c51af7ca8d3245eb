package main

import (
	"slices"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/experiments"
)

func TestCompare(t *testing.T) {
	rep := func(exps ...experiments.ExperimentReport) *experiments.Report {
		return &experiments.Report{Experiments: exps}
	}
	exp := func(name string, events uint64, wall float64) experiments.ExperimentReport {
		return experiments.ExperimentReport{Name: name, Events: events, WallSecs: wall, EventsPerSec: float64(events) / wall}
	}
	for _, tc := range []struct {
		name     string
		old, new *experiments.Report
		changed  []string
		print    []string
	}{
		// Twice as slow, or twice as fast: the machine, not the code.
		{"equal", rep(exp("fig17", 1000, 1), exp("fig5", 0, 1)), rep(exp("fig17", 1000, 2), exp("fig5", 0, 0.5)),
			nil, []string{"fig17", "fig5"}},
		// One event fewer is a changed simulation, however fast it ran.
		{"changed", rep(exp("fig17", 1000, 1), exp("fig18", 500, 1)), rep(exp("fig17", 999, 0.5), exp("fig18", 500, 1)),
			[]string{"fig17"}, []string{"<< events changed"}},
		{"one-sided", rep(exp("gone", 10, 1), exp("fig17", 1000, 1)), rep(exp("fig17", 1000, 1), exp("added", 10, 1)),
			nil, []string{"gone", "only in the baseline: skipped", "added", "no baseline: skipped"}},
	} {
		var out strings.Builder
		if changed := compare(&out, tc.old, tc.new); !slices.Equal(changed, tc.changed) {
			t.Errorf("%s: changed = %v, want %v\n%s", tc.name, changed, tc.changed, out.String())
		}
		for _, want := range tc.print {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, want, out.String())
			}
		}
	}
}
