package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// breach is one way result file B is worse than baseline A by more
// than the benchmark allows.
type breach struct {
	metric string
	msg    string
}

// worsening returns by what share of the baseline a the value b is
// worse, given which direction is better; negative means b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		if (better == "lower") == (b > a) {
			return 1 // any move away from an exact 0 in the bad direction
		}
		return -1
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports applies every end-to-end metric's own bound to B
// against baseline A, and the checks that must hold exactly: both runs
// correct, and — the seed being the same — identical output digests.
func compareReports(a, b *report, w io.Writer) []breach {
	var out []breach
	add := func(metric, format string, args ...interface{}) {
		out = append(out, breach{metric, fmt.Sprintf(format, args...)})
	}
	if a.Workload != b.Workload || a.Traced != b.Traced {
		add("workload", "comparing %s (traced=%v) with %s (traced=%v)", a.Workload, a.Traced, b.Workload, b.Traced)
		return out
	}
	for _, r := range []*report{a, b} {
		if !r.Correct {
			add("correct", "a run is not correct: %d of %d failed: %s", r.Failed, r.Attempted, r.FirstError)
		}
	}
	if a.Seed == b.Seed && a.OutputsDigest != b.OutputsDigest {
		add("outputs_digest", "seed %d gave %s and %s", a.Seed, a.OutputsDigest, b.OutputsDigest)
	}
	fmt.Fprintf(w, "%-20s %14s %14s %9s %8s\n", a.Workload, "A", "B", "worse by", "bound")
	for _, d := range endToEnd {
		va, oka := a.Metrics[d.name]
		vb, okb := b.Metrics[d.name]
		if !oka || !okb {
			continue
		}
		worse := worsening(va.Value, vb.Value, d.better)
		verdict := ""
		if worse > d.bound {
			verdict = "  BREACH"
			add(d.name, "%g -> %g %s is worse by %.2f%%, bound %g%%", va.Value, vb.Value, d.unit, 100*worse, 100*d.bound)
		}
		fmt.Fprintf(w, "%-20s %14.6g %14.6g %8.2f%% %7.1f%%%s\n", d.name, va.Value, vb.Value, 100*worse, 100*d.bound, verdict)
	}
	return out
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	breaches := compareReports(a, b, stdout)
	for _, br := range breaches {
		fmt.Fprintf(stdout, "FAIL %s: %s\n", br.metric, br.msg)
	}
	if len(breaches) > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "ok: B is within every bound of A")
	return 0
}
