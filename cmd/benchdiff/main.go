// Command benchdiff compares two quartzbench -json run reports and
// fails when any experiment's simulator throughput (events/sec)
// regressed beyond a threshold. When the two reports drove a different
// number of events through an experiment — the simulated work is fixed
// by the parameters, so the simulator changed what it spends an event
// on — events/sec is not comparable, and the experiment's wall time is
// compared instead. `make bench-diff` runs a fresh
// smoke-scale report and diffs it against the committed
// BENCH_quartz.json, which is how CI catches hot-path regressions
// before they land.
//
// Usage:
//
//	benchdiff -old BENCH_quartz.json -new /tmp/bench.json [-threshold 25]
//
// Experiments that drive no simulator events (analytic tables) are
// skipped, and so is an experiment present in only one of the two
// reports — reports from different revisions of the registry stay
// comparable; the skips are listed so a shrinking registry is visible.
// Exit status 1 signals a regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/quartz-dcn/quartz/internal/experiments"
)

var (
	oldPath   = flag.String("old", "BENCH_quartz.json", "baseline run report")
	newPath   = flag.String("new", "", "candidate run report")
	threshold = flag.Float64("threshold", 25, "allowed events/sec (or wall time) regression, percent")
)

// compare judges one experiment present in both reports. Equal event
// counts mean the same simulated work cost the same events, so the
// rate is the metric: deltaPct is the change in events/sec. Differing
// counts mean an event is no longer the same unit of work; deltaPct is
// then the change in speed by wall time, old/new - 1, so that in both
// cases a negative delta is a slowdown and the threshold applies alike.
func compare(oldE, newE experiments.ExperimentReport) (deltaPct float64, byWall bool) {
	if oldE.Events != newE.Events && newE.WallSecs > 0 {
		return 100 * (oldE.WallSecs/newE.WallSecs - 1), true
	}
	return 100 * (newE.EventsPerSec - oldE.EventsPerSec) / oldE.EventsPerSec, false
}

func readReport(path string) (*experiments.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r experiments.Report
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func main() {
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}
	oldRep, err := readReport(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newRep, err := readReport(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	byName := make(map[string]experiments.ExperimentReport, len(newRep.Experiments))
	for _, e := range newRep.Experiments {
		byName[e.Name] = e
	}

	inOld := make(map[string]bool, len(oldRep.Experiments))

	fmt.Printf("%-10s %14s %14s %8s\n", "experiment", "old ev/s", "new ev/s", "delta")
	regressed := false
	var skipped []string
	for _, oldE := range oldRep.Experiments {
		inOld[oldE.Name] = true
		if oldE.Events == 0 || oldE.EventsPerSec <= 0 {
			continue // analytic experiment: no event-loop throughput
		}
		newE, ok := byName[oldE.Name]
		if !ok {
			// Present only in the baseline — a registry that moved on,
			// not a regression in the code under test.
			fmt.Printf("%-10s %14.0f %14s %8s\n", oldE.Name, oldE.EventsPerSec, "-", "skipped")
			skipped = append(skipped, oldE.Name)
			continue
		}
		deltaPct, byWall := compare(oldE, newE)
		mark := ""
		if deltaPct < -*threshold {
			mark = "  << regression"
			regressed = true
		}
		fmt.Printf("%-10s %14.0f %14.0f %+7.1f%%%s\n",
			oldE.Name, oldE.EventsPerSec, newE.EventsPerSec, deltaPct, mark)
		if byWall {
			fmt.Printf("%-10s events differ (%d -> %d): delta is speed by wall time, %.3fs -> %.3fs\n",
				"", oldE.Events, newE.Events, oldE.WallSecs, newE.WallSecs)
		}
	}
	// New-only experiments have no baseline to diff against; list them
	// so the skip is deliberate rather than silent.
	var added []string
	for _, newE := range newRep.Experiments {
		if !inOld[newE.Name] && newE.Events > 0 && newE.EventsPerSec > 0 {
			added = append(added, newE.Name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Printf("%-10s %14s %14.0f %8s\n", name, "-", byName[name].EventsPerSec, "skipped")
	}
	if len(skipped) > 0 {
		fmt.Printf("skipped %d experiment(s) absent from %s: %s\n",
			len(skipped), *newPath, strings.Join(skipped, ", "))
	}
	if len(added) > 0 {
		fmt.Printf("skipped %d experiment(s) with no baseline in %s: %s\n",
			len(added), *oldPath, strings.Join(added, ", "))
	}
	if regressed {
		fmt.Fprintf(os.Stderr, "benchdiff: throughput regressed more than %.0f%% vs %s\n", *threshold, *oldPath)
		os.Exit(1)
	}
	fmt.Printf("ok: no experiment regressed more than %.0f%%\n", *threshold)
}
