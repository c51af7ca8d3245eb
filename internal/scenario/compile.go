package scenario

// Compilation: a validated Doc becomes an experiments.Experiment plus
// experiments.Params — the same currency the registry, quartzbench,
// and the quartzd job service already trade in.
//
// Identity rules (the result cache keys on these):
//
//   - An "experiment" document with no sweep compiles to the registry
//     entry itself, so its CacheKey is byte-identical to the key of a
//     direct submission of that experiment with the same parameters —
//     scenario and non-scenario submissions of the same work coalesce.
//   - Everything else (sim documents, any sweep) is keyed by the
//     canonical hash of the normalized document: "scenario/<hash>".
//     Normalization applies defaults and lowercases enums, and
//     canonical marshalling fixes field order, so reordered keys and
//     spelled-out defaults reach one key.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/table"
)

// Compiled is a scenario lowered onto the experiment machinery.
type Compiled struct {
	// Doc is the normalized source document.
	Doc Doc
	// Experiment runs the scenario; for registry passthrough documents
	// it is the registry entry itself.
	Experiment experiments.Experiment
	// Params are the run parameters the scenario pins.
	Params experiments.Params
}

// CacheKey returns the canonical result-cache identity — equal to the
// registry experiment's key for passthrough documents.
func (c *Compiled) CacheKey() string {
	return experiments.CacheKey(c.Experiment.Name, c.Params)
}

// Compile lowers a decoded (normalized, validated) file onto the
// experiment machinery.
func Compile(f *File) (*Compiled, error) {
	doc := f.Doc
	if doc.Experiment != nil && doc.Sweep == nil {
		exp, ok := experiments.Find(doc.Experiment.Name)
		if !ok {
			return nil, ErrorList{f.errAt("experiment.name", "unknown experiment %q", doc.Experiment.Name)}
		}
		return &Compiled{
			Doc:        doc,
			Experiment: exp,
			Params: experiments.Params{
				Seed:   doc.Seed,
				Trials: doc.Experiment.Trials,
				Tasks:  doc.Experiment.Tasks,
				RPCs:   doc.Experiment.RPCs,
			},
		}, nil
	}

	title := doc.Title
	if doc.Sweep != nil {
		title += fmt.Sprintf(" (sweep: %d runs)", len(cellsOf(&doc)))
	}
	return &Compiled{
		Doc: doc,
		Experiment: experiments.Experiment{
			Name:    ScenarioName(doc),
			Title:   title,
			Section: "scenario",
			Run:     compileGrid(doc).Sweep().Run,
		},
		Params: experiments.Params{Seed: doc.Seed},
	}, nil
}

// ScenarioName is the registry-style identity of a non-passthrough
// scenario: "scenario/" + the first 12 hex digits of the canonical
// document hash.
func ScenarioName(d Doc) string {
	sum := sha256.Sum256(Canonical(d))
	return "scenario/" + hex.EncodeToString(sum[:6])
}

// Canonical returns the canonical byte form of a normalized document:
// JSON with the struct's fixed field order, map keys sorted (Go's
// encoder), and presentation-only fields (Title) cleared. Two
// documents describing the same experiment marshal identically.
func Canonical(d Doc) []byte {
	d.Title = ""
	b, err := json.Marshal(d)
	if err != nil {
		// Doc is plain data; Marshal cannot fail on it.
		panic("scenario: canonical marshal: " + err.Error())
	}
	return b
}

// A sweepCell is one point of the sweep grid: the axis values it pins
// plus its trial index.
type sweepCell struct {
	overrides []axisValue
	trial     int
}

type axisValue struct {
	name string
	val  interface{}
}

// label renders the cell header fragment ("tasks=4 pps=40000, trial 2/3").
func (c sweepCell) label(trials int) string {
	var parts []string
	for _, ov := range c.overrides {
		parts = append(parts, fmt.Sprintf("%s=%v", ov.name, ov.val))
	}
	s := strings.Join(parts, " ")
	if trials > 1 {
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("trial %d/%d", c.trial+1, trials)
	}
	return s
}

// cellsOf enumerates the sweep grid in deterministic order: sorted
// axis names, row-major with the last axis fastest, trials innermost.
// A doc without a sweep yields one empty cell.
func cellsOf(d *Doc) []sweepCell {
	if d.Sweep == nil {
		return []sweepCell{{}}
	}
	names := sortedAxisNames(d.Sweep.Axes)
	cells := []sweepCell{{}}
	for _, name := range names {
		vals := d.Sweep.Axes[name]
		next := make([]sweepCell, 0, len(cells)*len(vals))
		for _, c := range cells {
			for _, v := range vals {
				ov := make([]axisValue, len(c.overrides), len(c.overrides)+1)
				copy(ov, c.overrides)
				next = append(next, sweepCell{overrides: append(ov, axisValue{name, v})})
			}
		}
		cells = next
	}
	if d.Sweep.Trials > 1 {
		next := make([]sweepCell, 0, len(cells)*d.Sweep.Trials)
		for _, c := range cells {
			for t := 0; t < d.Sweep.Trials; t++ {
				next = append(next, sweepCell{overrides: c.overrides, trial: t})
			}
		}
		cells = next
	}
	return cells
}

// sortedAxisNames returns the axis names in canonical order.
func sortedAxisNames(axes map[string][]interface{}) []string {
	names := make([]string, 0, len(axes))
	for name := range axes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// A cell is one run of a compiled scenario: its document with the
// cell's axis values applied, the seed it runs at and its header label.
type cell struct {
	doc   *Doc
	seed  int64
	label string
}

// String is the label, which the Grid's error message quotes.
func (c cell) String() string { return c.label }

// cellOutput is what a cell hands the merge, across the Grid's JSON
// boundary: its text and its tables.
type cellOutput struct {
	Text   string
	Tables []table.Table
}

// compileGrid lowers doc (one run, or a sweep) onto the Grid executor:
// its cells run on the worker pool and merge in cell order into one
// Output, whose event count is the sum of its cells'.
func compileGrid(doc Doc) experiments.Grid[cell, cellOutput, experiments.Output] {
	trials := 1
	if doc.Sweep != nil {
		trials = doc.Sweep.Trials
	}
	return experiments.Grid[cell, cellOutput, experiments.Output]{
		Name: doc.Name,
		Cells: func(p experiments.Params) []cell {
			points := cellsOf(&doc)
			cells := make([]cell, len(points))
			for i, pt := range points {
				d := doc.clone()
				defs := axisDefs(&d)
				for _, ov := range pt.overrides {
					defs[ov.name].apply(&d, ov.val) // Decode refuses an unknown axis
				}
				seed := d.Seed
				if seed == 0 || seed == doc.Seed {
					// The axis didn't pin a seed: the submission's seed rules.
					seed = p.Seed
				}
				cells[i] = cell{doc: &d, seed: seed + int64(pt.trial), label: pt.label(trials)}
			}
			return cells
		},
		Run: func(p experiments.Params, c cell, sh experiments.Shared) (cellOutput, error) {
			out, err := runCell(sh.Context(), c.doc, c.seed, p)
			sh.AddEvents(out.Events)
			return cellOutput{Text: out.Text, Tables: out.Tables}, err
		},
		Merge: func(_ experiments.Params, cells []cell, vals []cellOutput) (experiments.Output, error) {
			if len(cells) == 1 {
				return experiments.Output{Text: vals[0].Text, Tables: vals[0].Tables}, nil
			}
			var b strings.Builder
			var out experiments.Output
			for i, v := range vals {
				fmt.Fprintf(&b, "== %s [%d/%d: %s, seed %d]\n%s\n", doc.Name, i+1, len(cells), cells[i].label, cells[i].seed, v.Text)
				for _, t := range v.Tables {
					t.Name = fmt.Sprintf("%s-cell%03d", t.Name, i+1)
					out.Tables = append(out.Tables, t)
				}
			}
			out.Text = b.String()
			return out, nil
		},
		Render: func(out experiments.Output) experiments.Output { return out },
	}
}

// runCell executes one fully-pinned scenario instance.
func runCell(ctx context.Context, d *Doc, seed int64, p experiments.Params) (experiments.Output, error) {
	if d.Experiment != nil {
		exp, ok := experiments.Find(d.Experiment.Name)
		if !ok {
			return experiments.Output{}, fmt.Errorf("unknown experiment %q", d.Experiment.Name)
		}
		cellParams := experiments.Params{
			Seed:   seed,
			Trials: d.Experiment.Trials,
			Tasks:  d.Experiment.Tasks,
			RPCs:   d.Experiment.RPCs,
			Trace:  p.Trace,
		}
		return exp.Run(ctx, cellParams.WithDefaults())
	}
	// The submission's span recorder is the only side band a cell has.
	var side netsim.ObserveOptions
	if pr := d.Sim.Probes; pr != nil && pr.TraceSpans {
		side.Spans = p.Trace
	}
	s, err := NewSim(d.Sim, seed, side)
	if err != nil {
		return experiments.Output{}, err
	}
	text, err := s.Run(ctx)
	if err != nil {
		return experiments.Output{}, err // a cancelled cell's partial text is not a result
	}
	return experiments.Output{Text: text, Events: s.Net.Engine().Processed()}, nil
}

// clone returns a deep-enough copy of the document for per-cell
// mutation: every pointed-to section and slice is copied.
func (d Doc) clone() Doc {
	if d.Experiment != nil {
		e := *d.Experiment
		d.Experiment = &e
	}
	if d.Sim != nil {
		s := *d.Sim
		if s.Routing != nil {
			r := *s.Routing
			s.Routing = &r
		}
		if s.Faults != nil {
			fa := *s.Faults
			fa.Events = append([]FaultEventSpec(nil), fa.Events...)
			s.Faults = &fa
		}
		if s.Probes != nil {
			pr := *s.Probes
			s.Probes = &pr
		}
		d.Sim = &s
	}
	// Sweep is read-only during runs; share it.
	return d
}

// axisDef validates and applies one sweep axis.
type axisDef struct {
	check func(v interface{}) error
	apply func(d *Doc, v interface{})
}

// axisDefs returns the sweepable axes of a document, which depend on
// its type (registry parameters vs simulation knobs).
func axisDefs(d *Doc) map[string]axisDef {
	defs := map[string]axisDef{
		"seed": intAxis(1, 1<<62, func(d *Doc, n int64) { d.Seed = n }),
	}
	if d.Experiment != nil {
		defs["trials"] = intAxis(1, 1_000_000, func(d *Doc, n int64) { d.Experiment.Trials = int(n) })
		defs["tasks"] = intAxis(1, maxTasks, func(d *Doc, n int64) { d.Experiment.Tasks = int(n) })
		defs["rpcs"] = intAxis(1, 1_000_000, func(d *Doc, n int64) { d.Experiment.RPCs = int(n) })
	}
	if d.Sim != nil {
		defs["tasks"] = intAxis(1, maxTasks, func(d *Doc, n int64) { d.Sim.Workload.Tasks = int(n) })
		defs["fanout"] = intAxis(1, 4096, func(d *Doc, n int64) { d.Sim.Workload.Fanout = int(n) })
		defs["packet_size"] = intAxis(64, 9000, func(d *Doc, n int64) { d.Sim.Workload.PacketSize = int(n) })
		defs["pps"] = floatAxis(0, 100e6, func(d *Doc, x float64) { d.Sim.Workload.PPS = x })
		defs["duration_ms"] = floatAxis(0, maxDurationMS, func(d *Doc, x float64) { d.Sim.DurationMS = x })
		defs["workload"] = stringAxis(generatedWorkloads, func(d *Doc, s string) {
			d.Sim.Workload.Kind = s
			if singlePattern(s) {
				d.Sim.Workload.Tasks = 1
			}
		})
		defs["quartz"] = axisDef{
			check: func(v interface{}) error {
				s, ok := v.(string)
				if !ok {
					return fmt.Errorf("want a string, got %v", v)
				}
				allowed := quartzPlacements[d.Sim.Topology.Kind]
				if !oneOf(lower(s), allowed) {
					return fmt.Errorf("topology %q does not support quartz=%q (valid here: %s)",
						d.Sim.Topology.Kind, s, strings.Join(allowed, ", "))
				}
				return nil
			},
			apply: func(d *Doc, v interface{}) { d.Sim.Topology.Quartz = lower(v.(string)) },
		}
	}
	return defs
}

// asInt coerces a decoded axis value (float64 from JSON, or a Go int
// in hand-built docs) to an integer.
func asInt(v interface{}) (int64, bool) {
	switch n := v.(type) {
	case float64:
		if n != float64(int64(n)) {
			return 0, false
		}
		return int64(n), true
	case int:
		return int64(n), true
	case int64:
		return n, true
	}
	return 0, false
}

// asFloat coerces a decoded axis value to a float.
func asFloat(v interface{}) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	}
	return 0, false
}

func intAxis(min, max int64, set func(*Doc, int64)) axisDef {
	return axisDef{
		check: func(v interface{}) error {
			n, ok := asInt(v)
			if !ok {
				return fmt.Errorf("want an integer, got %v", v)
			}
			if n < min || n > max {
				return fmt.Errorf("value %d out of range [%d, %d]", n, min, max)
			}
			return nil
		},
		apply: func(d *Doc, v interface{}) { n, _ := asInt(v); set(d, n) },
	}
}

func floatAxis(min, max float64, set func(*Doc, float64)) axisDef {
	return axisDef{
		check: func(v interface{}) error {
			x, ok := asFloat(v)
			if !ok {
				return fmt.Errorf("want a number, got %v", v)
			}
			if x <= min || x > max {
				return fmt.Errorf("value %g out of range (%g, %g]", x, min, max)
			}
			return nil
		},
		apply: func(d *Doc, v interface{}) { x, _ := asFloat(v); set(d, x) },
	}
}

func stringAxis(valid []string, set func(*Doc, string)) axisDef {
	return axisDef{
		check: func(v interface{}) error {
			s, ok := v.(string)
			if !ok {
				return fmt.Errorf("want a string, got %v", v)
			}
			if !oneOf(lower(s), valid) {
				return fmt.Errorf("unknown value %q (valid: %s)", s, strings.Join(valid, ", "))
			}
			return nil
		},
		apply: func(d *Doc, v interface{}) { set(d, lower(v.(string))) },
	}
}
