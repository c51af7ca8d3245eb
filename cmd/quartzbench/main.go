// Command quartzbench regenerates the tables and figures of the Quartz
// paper's evaluation (SIGCOMM 2014) and prints them as ASCII tables.
//
// Usage:
//
//	quartzbench [-run all|<name>] [-list] [-scenario FILE]
//	            [-seed N] [-trials N] [-tasks N] [-rpcs N]
//	            [-csv DIR] [-cpuprofile FILE] [-memprofile FILE]
//	            [-trace-spans FILE] [-flight-recorder]
//
// -scenario runs a declarative scenario document (SCENARIOS.md)
// instead of registry entries: the compiled experiment flows through
// the same printing, CSV-export and span loop, with the parameters the
// document pins. -run, -seed, -trials, -tasks and -rpcs describe what
// the document describes, so setting one with -scenario is a usage
// error (exit 2), as in quartzsim.
//
// The experiment set comes from the experiments registry
// (experiments.All); -list prints it. Each experiment is deterministic
// for a given seed; -csv additionally writes the data-bearing
// experiments' rows as CSV files. -cpuprofile and -memprofile write
// pprof profiles covering the selected experiments — the instrument for
// the simulator's own hot paths (`go tool pprof` reads them).
// Interrupting the run (SIGINT/SIGTERM) cancels the in-flight
// experiment's context.
//
// -trace-spans records execution spans — experiment build/run/cell
// phases — and writes Chrome trace-event JSON for Perfetto
// (ui.perfetto.dev). -flight-recorder
// bounds the recorder to the most recent spans so a long run keeps a
// black box instead of an unbounded log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/scenario"
	"github.com/quartz-dcn/quartz/internal/table"
	"github.com/quartz-dcn/quartz/internal/trace"
)

// flightRecorderSpans bounds the -flight-recorder ring: enough for the
// last few thousand cells of a long run without unbounded memory.
const flightRecorderSpans = 4096

var (
	runName    = flag.String("run", "all", "experiment to run: all, or a name from -list")
	list       = flag.Bool("list", false, "print the experiment registry and exit")
	scenarioIn = flag.String("scenario", "", "run a declarative scenario file (JSON, see SCENARIOS.md) instead of registry experiments")
	seed       = flag.Int64("seed", 2014, "random seed")
	trials     = flag.Int("trials", 5000, "scales validate's packet count (30 x trials)")
	tasks      = flag.Int("tasks", 8, "maximum concurrent tasks (fig17/fig18)")
	rpcs       = flag.Int("rpcs", 2000, "RPCs per point (fig14)")
	csvDir     = flag.String("csv", "", "also write each experiment's rows as CSV files into this directory")
	traceSpans = flag.String("trace-spans", "", "record execution spans (experiment cells) and write Chrome trace-event JSON to this file (open in Perfetto)")
	flightRec  = flag.Bool("flight-recorder", false, "bound the span recorder to the most recent spans (with -trace-spans): a black box for long runs")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile after the run to this file")
)

// exportCSV writes t to <csvDir>/<t.Name>.csv when -csv is set.
func exportCSV(t table.Table) error {
	if *csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*csvDir, t.Name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := errors.Join(t.WriteCSV(f), f.Close()); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n", path)
	return nil
}

func printRegistry() {
	fmt.Printf("%-10s %-8s %s\n", "name", "section", "title")
	for _, e := range experiments.All() {
		fmt.Printf("%-10s %-8s %s\n", e.Name, e.Section, e.Title)
	}
}

// scenarioFields names, for each flag a -scenario document replaces,
// the document field that sets it instead.
var scenarioFields = map[string]string{
	"run": "experiment.name", "seed": "seed",
	"trials": "experiment.trials", "tasks": "experiment.tasks", "rpcs": "experiment.rpcs",
}

// usageError marks a bad invocation (exit status 2) rather than a
// failed run (1).
type usageError struct{ error }

func main() {
	flag.Parse()
	if *list {
		printRegistry()
		return
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quartzbench: %v\n", err)
		if errors.As(err, &usageError{}) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run executes the selected experiments and writes the requested
// outputs. Its deferred profile writers run on every return, a failed
// experiment's included.
func run() (err error) {
	if *scenarioIn != "" {
		flag.Visit(func(f *flag.Flag) {
			if field, ok := scenarioFields[f.Name]; ok && err == nil {
				err = usageError{fmt.Errorf("-%s and -scenario both describe the run; set %s in %s instead", f.Name, field, *scenarioIn)}
			}
		})
		if err != nil {
			return err
		}
	}
	if *cpuProfile != "" {
		f, ferr := os.Create(*cpuProfile)
		if ferr != nil {
			return ferr
		}
		if ferr := pprof.StartCPUProfile(f); ferr != nil {
			f.Close()
			return ferr
		}
		defer func() {
			pprof.StopCPUProfile()
			if ferr := f.Close(); ferr != nil {
				err = errors.Join(err, fmt.Errorf("writing CPU profile: %w", ferr))
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, ferr := os.Create(*memProfile)
			if ferr == nil {
				runtime.GC() // settle allocations so the heap profile is sharp
				ferr = errors.Join(pprof.WriteHeapProfile(f), f.Close())
			}
			if ferr != nil {
				err = errors.Join(err, fmt.Errorf("writing heap profile: %w", ferr))
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	params := experiments.Params{Seed: *seed, Trials: *trials, Tasks: *tasks, RPCs: *rpcs}

	which := strings.ToLower(*runName)
	exps := experiments.All()
	if *scenarioIn != "" {
		f, err := scenario.Load(*scenarioIn)
		if err != nil {
			return usageError{err}
		}
		c, err := scenario.Compile(f)
		if err != nil {
			return usageError{err}
		}
		// The document pins its own parameters and replaces the
		// registry selection; everything downstream is unchanged.
		exps = []experiments.Experiment{c.Experiment}
		params = c.Params.WithDefaults()
		which = "all"
	}

	var spans *trace.Recorder
	if *traceSpans != "" {
		if *flightRec {
			spans = trace.NewFlightRecorder(flightRecorderSpans)
		} else {
			spans = trace.NewRecorder()
		}
		params.Trace = spans
	}

	ran := false
	for _, e := range exps {
		if which != "all" && which != e.Name {
			continue
		}
		ran = true
		fmt.Printf("==> %s\n", e.Title)
		out, err := e.Run(ctx, params)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Print(out.Text)
		for _, t := range out.Tables {
			if err := exportCSV(t); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
		}
		fmt.Println()
	}
	if !ran {
		printRegistry()
		return usageError{fmt.Errorf("unknown experiment %q", *runName)}
	}
	if spans != nil {
		f, err := os.Create(*traceSpans)
		if err != nil {
			return err
		}
		meta := map[string]string{"tool": "quartzbench", "run": *runName}
		if err := errors.Join(spans.WriteChrome(f, meta), f.Close()); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("wrote %d execution spans to %s\n", spans.Len(), *traceSpans)
	}
	return nil
}
