// Command bench is the repository's benchmark: four named workloads,
// end-to-end metrics from an untraced run, per-layer metrics and a
// span file from a separate traced run, and a -compare mode that
// applies each metric's own bound to two result files. README.md in
// this directory has the tables and the reasons.
//
//	go run ./bench -workload paper_packet [-seed N] [-seconds S] [-trace 1]
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var processStart = time.Now()

// workloadNames lists the workloads in the order run.sh runs them.
// BENCHMARK.json lists all but svc_mix: the driver refused that one,
// its block time spread 34-37 % between runs of the same code against a
// bound of 25 % (README.md, "What BENCHMARK.json declares"), so it is
// run and gated by run.sh and -compare only.
var workloadNames = []string{"paper_packet", "paper_analytic", "svc_mix", "cluster_sweep"}

func runWorkload(name string, e *env) (*runResult, error) {
	switch name {
	case "paper_packet":
		return paperPacket(e).run(e)
	case "paper_analytic":
		return paperAnalytic(e).run(e)
	case "svc_mix":
		return svcMix(e)
	case "cluster_sweep":
		return clusterSweep(e).run(e)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 2014, "every input derives from it: experiment seeds, scenario documents, the op sequence")
	seconds := fs.Float64("seconds", 30, "length of the timed part (the traced run uses a third)")
	traced := fs.Int("trace", 0, "1: traced run — per-layer metrics and bench/out/<workload>.trace.json; 0: end-to-end metrics")
	smoke := fs.Bool("smoke", false, "1 pass / 200 ops and shrunken probes; with no -workload, every workload in turn")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	names := []string{*workload}
	if *workload == "" {
		if !*smoke {
			fmt.Fprintln(stderr, "bench: -workload is required (one of "+strings.Join(workloadNames, ", ")+")")
			return 2
		}
		names = workloadNames
	}
	for _, name := range names {
		e := &env{seed: *seed, seconds: *seconds, smoke: *smoke, nproc: runtime.NumCPU()}
		if *traced != 0 {
			// The traced run reports no setup_s, so it sets up once.
			e.tr, e.seconds, e.oneSetup = newTracer(), *seconds/3, true
		}
		rep, err := measure(name, e)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := rep.write(*out, e.tr, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result file, and the source of its printed form.
type report struct {
	Schema        string            `json:"schema"`
	Workload      string            `json:"workload"`
	Seed          int64             `json:"seed"`
	Traced        bool              `json:"traced"`
	Header        map[string]string `json:"header"`
	Correct       bool              `json:"correct"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	FirstError    string            `json:"first_error,omitempty"`
	OutputsDigest string            `json:"outputs_digest"`
	Metrics       map[string]value  `json:"metrics"`
	// Timings gives each timed sample of the untraced run as its median
	// and the highest percentile that has ten samples beyond it.
	Timings []timing `json:"timings,omitempty"`
	// SelfSeconds is the traced run's self time by span name.
	SelfSeconds map[string]float64 `json:"self_seconds,omitempty"`
}

const reportSchema = "quartz-benchmark/v1"

// timing summarises one sample of timings.
type timing struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_percentile"`
	Tail  float64 `json:"tail"`
}

func summarise(name, unit string, s sample) timing {
	tp := highestPercentile(len(s))
	return timing{Name: name, Unit: unit, N: len(s), P50: s.p(50), TailP: tp, Tail: s.p(tp)}
}

// measure runs one workload and gathers its report: end-to-end
// metrics untraced, per-layer metrics (workload, then probes) traced.
func measure(name string, e *env) (*report, error) {
	calibMS, _ := calibrate()
	rep := &report{
		Schema: reportSchema, Workload: name, Seed: e.seed, Traced: e.tr != nil,
		Metrics: map[string]value{},
	}
	md1 := math.NaN()
	if e.tr == nil {
		trials := 5000
		if e.smoke {
			trials = 200
		}
		var err error
		if md1, err = md1ErrPct(trials); err != nil {
			return nil, err
		}
	}
	startup := time.Since(processStart).Seconds()

	res, err := runWorkload(name, e)
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed, rep.FirstError = res.attempted, res.failed, res.firstError
	rep.Correct = res.failed == 0 && res.attempted > 0
	rep.OutputsDigest = res.digest
	rep.Header = map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(e.nproc),
		"gomaxprocs": fmt.Sprint(res.gomaxprocs),
		"params":     res.params,
		"load":       "one process; quartzd servers in-process behind httptest on loopback; closed loop",
		"passes":     fmt.Sprint(len(res.passS)),
		"jobs":       fmt.Sprint(res.attempted),
		"timed_s":    fmt.Sprintf("%.3f", res.wallS),
		"startup_s":  fmt.Sprintf("%.3f", startup),
		"calib_ms":   fmt.Sprintf("%.3f", calibMS),
		"smoke":      fmt.Sprint(e.smoke),
	}
	if res.clients > 0 {
		rep.Header["clients"] = fmt.Sprint(res.clients)
	}
	if e.nproc < 2 && (name == "svc_mix" || name == "cluster_sweep") {
		rep.Header["comparable"] = "no: one CPU, so one client/worker instead of two"
	}

	passes := float64(len(res.passS))
	if e.tr == nil {
		e2e := metrics{
			"setup_s":           res.setupS.p(50),
			"pass_s_p50":        res.passS.p(50),
			"allocs_per_pass":   float64(res.mem.mallocs) / passes,
			"alloc_mb_per_pass": float64(res.mem.bytes) / passes / 1e6,
			"jobs_per_s":        float64(res.jobs) / res.wallS,
			"md1_err_pct":       md1,
			"hit_ms_p50":        res.classMS["hit"].p(50),
			"hit_ms_p99":        res.classMS["hit"].p(99),
			"nocache_ms_p50":    res.classMS["nocache"].p(50),
			"cold_ms_p50":       res.classMS["cold"].p(50),
			"failed_frac":       float64(res.failed) / float64(max(res.attempted, 1)),
		}
		for _, d := range endToEnd {
			if d.on(name) {
				rep.Metrics[d.name] = value{Value: e2e[d.name], Unit: d.unit}
			}
		}
		rep.Timings = append(rep.Timings, summarise("setup", "s", res.setupS), summarise("pass", "s", res.passS))
		for _, class := range opNames {
			if s := res.classMS[class]; len(s) > 0 {
				rep.Timings = append(rep.Timings, summarise(class, "ms", s))
			}
		}
		return rep, nil
	}

	layer, err := probeSet(e)
	if err != nil {
		return nil, err
	}
	layer["bench.calib_ms"] = calibMS
	layer["bench.trace_overhead_frac"] = res.tracedT.p(50)/res.untracedT.p(50) - 1
	layer["bench.gc_cycles_per_pass"] = float64(res.mem.gcs) / passes
	layer["bench.peak_rss_mb"] = peakRSSMB()
	for _, d := range perLayer {
		v, ok := layer[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured (%v)", d.name, v)
		}
		rep.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	rep.SelfSeconds = selfByName(e.tr.finished())
	return rep, nil
}

// write prints the report — header, every metric by name with its
// unit, the digest, and the one-line JSON result last — and stores it
// (and the traced run's span file) under dir.
func (r *report) write(dir string, tr *tracer, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, r.Workload)
	if r.Traced {
		path := base + ".trace.json"
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		werr := tr.writeChrome(f, map[string]string{"workload": r.Workload, "seed": fmt.Sprint(r.Seed)})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing %s: %w", path, werr)
		}
		r.Header["trace_file"] = path
		base += ".traced"
	}
	enc, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(enc, '\n'), 0o644); err != nil {
		return err
	}

	kind := "end-to-end (untraced run)"
	defs := endToEnd
	if r.Traced {
		kind, defs = "per-layer (traced run)", perLayer
	}
	fmt.Fprintf(stdout, "== %s | seed %d | %s\n", r.Workload, r.Seed, kind)
	keys := make([]string, 0, len(r.Header))
	for k := range r.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "%-12s %s\n", k, r.Header[k])
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-34s %14.6g %-6s %s is better", d.name, v.Value, v.Unit, d.better)
		if d.bound > 0 {
			line += fmt.Sprintf("  bound %g%%", 100*d.bound)
		}
		fmt.Fprintln(stdout, line)
	}
	for _, t := range r.Timings {
		fmt.Fprintf(stdout, "timing %-12s n=%-7d p50 %.6g %s, p%g %.6g %s\n", t.Name, t.N, t.P50, t.Unit, t.TailP, t.Tail, t.Unit)
	}
	if r.Traced {
		fmt.Fprintln(stdout, "self time by span name (s):")
		names := make([]string, 0, len(r.SelfSeconds))
		for n := range r.SelfSeconds {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return r.SelfSeconds[names[i]] > r.SelfSeconds[names[j]] })
		for _, n := range names {
			fmt.Fprintf(stdout, "  %-28s %10.4f\n", n, r.SelfSeconds[n])
		}
	}
	if r.FirstError != "" {
		fmt.Fprintf(stdout, "first_error  %s\n", r.FirstError)
	}
	fmt.Fprintf(stdout, "outputs_digest %s\n", r.OutputsDigest)

	// The result line: the metrics BENCHMARK.json declares, all of them.
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		if v, ok := r.Metrics[d.name]; ok && (r.Traced || d.declared()) {
			line.Metrics[d.name] = v
		}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(last))
	return err
}
