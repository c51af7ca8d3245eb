// Command benchdiff compares two quartzbench -json run reports and
// fails when an experiment both reports ran drove a different number of
// simulator events. The parameters and the seed fix the simulated work,
// so the count is the same on any machine: a change means the code
// changed what a simulation does or what it spends an event on, and the
// committed ledger must be regenerated with `make bench-json` and
// committed with that change. Events/sec and wall time are printed for
// the record but not gated — they measure the machine as much as the
// code; a speed claim is checked by paired runs (`make bench-pair`).
// `make bench-diff` runs a fresh smoke-scale report and diffs it against
// the committed BENCH_quartz.json.
//
// Usage:
//
//	benchdiff -old BENCH_quartz.json -new /tmp/bench.json
//
// An experiment present in only one of the two reports is listed and
// skipped, so reports from different revisions of the registry stay
// comparable. Exit status 1 signals a changed event count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/quartz-dcn/quartz/internal/experiments"
)

var (
	oldPath = flag.String("old", "BENCH_quartz.json", "baseline run report")
	newPath = flag.String("new", "", "candidate run report")
)

// compare writes one row per experiment of either report and returns the
// names of those both ran whose event counts differ.
func compare(w io.Writer, oldRep, newRep *experiments.Report) (changed []string) {
	byName := make(map[string]experiments.ExperimentReport, len(newRep.Experiments))
	for _, e := range newRep.Experiments {
		byName[e.Name] = e
	}
	inOld := make(map[string]bool, len(oldRep.Experiments))
	fmt.Fprintf(w, "%-10s %11s %11s %12s %12s %9s %9s\n",
		"experiment", "old events", "new events", "old ev/s", "new ev/s", "old wall", "new wall")
	for _, o := range oldRep.Experiments {
		inOld[o.Name] = true
		n, ok := byName[o.Name]
		if !ok {
			fmt.Fprintf(w, "%-10s %11d %11s   only in the baseline: skipped\n", o.Name, o.Events, "-")
			continue
		}
		mark := ""
		if n.Events != o.Events {
			mark = "  << events changed"
			changed = append(changed, o.Name)
		}
		fmt.Fprintf(w, "%-10s %11d %11d %12.0f %12.0f %8.3fs %8.3fs%s\n",
			o.Name, o.Events, n.Events, o.EventsPerSec, n.EventsPerSec, o.WallSecs, n.WallSecs, mark)
	}
	for _, n := range newRep.Experiments {
		if !inOld[n.Name] {
			fmt.Fprintf(w, "%-10s %11s %11d   no baseline: skipped\n", n.Name, "-", n.Events)
		}
	}
	return changed
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
	if changed := compare(os.Stdout, oldRep, newRep); len(changed) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: event counts differ from %s: %s\n"+
			"if the change is intended, regenerate the ledger with `make bench-json` and commit it\n",
			*oldPath, strings.Join(changed, ", "))
		os.Exit(1)
	}
	fmt.Printf("ok: every experiment drove the baseline's event count\n")
}
