package scenario

// Compilation: a validated Doc becomes an experiments.Experiment plus
// experiments.Params — the same currency the registry, quartzsim -run
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
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/table"
)

// Compiled is a scenario lowered onto the experiment machinery.
type Compiled struct {
	// Doc is the normalized source document.
	Doc Doc
	// Experiment runs the scenario; for registry passthrough documents
	// it is the registry entry itself.
	Experiment experiments.Experiment
	// Params are the parameters the run reads: the registry entry's,
	// defaults applied, for a passthrough document; the seed alone for a
	// simulation or a sweep, whose cells take the rest from the document.
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
			}.WithDefaults(),
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
// document hash. probes.trace_spans only sends spans to a side band,
// so the hash leaves it out, and an empty probes section is hashed as
// absent.
func ScenarioName(d Doc) string {
	if d.Sim != nil && d.Sim.Probes != nil {
		s, pr := *d.Sim, *d.Sim.Probes
		pr.TraceSpans = false
		s.Probes = &pr
		if pr == (ProbesSpec{}) {
			s.Probes = nil
		}
		d.Sim = &s
	}
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

// axisValue is value i of the axis name.
type axisValue struct {
	name string
	i    int
	val  interface{}
}

// path locates the value in the document: "sweep.axes.<name>[i]".
func (ov axisValue) path() string { return fmt.Sprintf("sweep.axes.%s[%d]", ov.name, ov.i) }

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
	names, n := sortedKeys(d.Sweep.Axes), 1
	for _, name := range names {
		n *= len(d.Sweep.Axes[name])
	}
	cells := make([]sweepCell, 0, n*d.Sweep.Trials)
	for k := 0; k < n; k++ {
		ovs := make([]axisValue, len(names))
		for j, rest := len(names)-1, k; j >= 0; j-- {
			vals := d.Sweep.Axes[names[j]]
			ovs[j] = axisValue{names[j], rest % len(vals), vals[rest%len(vals)]}
			rest /= len(vals)
		}
		for t := 0; t < d.Sweep.Trials; t++ {
			cells = append(cells, sweepCell{ovs, t})
		}
	}
	return cells
}

// sortedKeys returns m's keys in order: axis names in canonical order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
		Cells: func(experiments.Params) []cell {
			points := cellsOf(&doc)
			cells := make([]cell, len(points))
			for i, pt := range points {
				d, _ := pt.doc(&doc) // Decode validated every cell
				cells[i] = cell{doc: &d, seed: d.Seed + int64(pt.trial), label: pt.label(trials)}
			}
			return cells
		},
		Run: func(p experiments.Params, c cell, sh experiments.Shared) (cellOutput, error) {
			out, err := runCell(sh, c.doc, c.seed, p)
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

// runCell executes one fully-pinned scenario instance and adds its
// events to sh's cell.
func runCell(sh experiments.Shared, d *Doc, seed int64, p experiments.Params) (experiments.Output, error) {
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
		out, err := exp.Run(sh.Context(), cellParams.WithDefaults())
		sh.AddEvents(out.Events)
		return out, err
	}
	// The submission's span recorder is the only side band a cell has.
	var sinks Sinks
	if pr := d.Sim.Probes; pr != nil && pr.TraceSpans {
		sinks.Spans = p.Trace
	}
	s, err := NewSim(sh, d.Sim, seed, sinks)
	if err != nil {
		return experiments.Output{}, err
	}
	text, err := s.Run(sh.Context())
	if err != nil {
		return experiments.Output{}, err // a cancelled cell's partial text is not a result
	}
	return experiments.Output{Text: text}, nil
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

// experimentAxes and simAxes map each sweepable axis of the two
// document types to the field it writes, by its JSON path.
var (
	experimentAxes = map[string]string{
		"seed": "seed", "trials": "experiment.trials", "tasks": "experiment.tasks", "rpcs": "experiment.rpcs",
	}
	simAxes = map[string]string{
		"seed": "seed", "tasks": "sim.workload.tasks", "fanout": "sim.workload.fanout",
		"packet_size": "sim.workload.packet_size", "pps": "sim.workload.pps", "duration_ms": "sim.duration_ms",
		"workload": "sim.workload.kind", "quartz": "sim.topology.quartz",
	}
)

// axesOf returns the sweepable axes of d's document type.
func axesOf(d *Doc) map[string]string {
	if d.Sim != nil {
		return simAxes
	}
	return experimentAxes
}

// doc returns the document c runs: base with the cell's axis values
// written into their fields, the "workload" axis setting tasks to 1
// for a single-pattern kind. A value that cannot be written — of the
// wrong type, or refused by sweepValue — is an error at that value.
func (c sweepCell) doc(base *Doc) (Doc, []*Error) {
	d := base.clone()
	var bad []*Error
	for _, ov := range c.overrides {
		msg := write(&d, axesOf(base)[ov.name], ov.val)
		if msg == "" {
			msg = sweepValue(ov)
		}
		if msg != "" {
			bad = append(bad, &Error{Path: ov.path(), Msg: msg})
		} else if ov.name == "workload" && singlePattern(d.Sim.Workload.Kind) {
			d.Sim.Workload.Tasks = 1
		}
	}
	return d, bad
}

// write sets the field at path in d to v by a JSON merge of that one
// field, which leaves the rest of d — a replay's trace above all —
// shared and unread. It says why v cannot be set: the wrong type.
func write(d *Doc, path string, v interface{}) string {
	if v == nil {
		return "want a value, got null"
	}
	b, _ := json.Marshal(v) // v was decoded from JSON
	names := strings.Split(path, ".")
	for i := len(names) - 1; i >= 0; i-- {
		b = fmt.Appendf(nil, `{%q:%s}`, names[i], b)
	}
	var te *json.UnmarshalTypeError
	if err := json.Unmarshal(b, d); errors.As(err, &te) {
		return fmt.Sprintf("want %s, got %v", te.Type, v)
	}
	return ""
}
