package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/trace"
)

// runPartitioned executes a sweep as a set of contiguous ranges (the
// cluster coordinator's shape) and merges the blocks. Cuts outside
// (0, n), or not above the previous one, are skipped, so a one-cell
// grid runs as one range.
func runPartitioned(t *testing.T, sw *Sweep, p Params, cuts []int) Output {
	t.Helper()
	n := sw.Cells(p)
	bounds := []int{0}
	for _, c := range append(cuts, n) {
		if c > bounds[len(bounds)-1] && c <= n {
			bounds = append(bounds, c)
		}
	}
	var blocks []CellBlock
	for i := 0; i+1 < len(bounds); i++ {
		// Round-trip each block through its wire form, as a worker
		// sub-job result would.
		out, err := sw.RunRange(context.Background(), p, bounds[i], bounds[i+1])
		if err != nil {
			t.Fatalf("RunRange[%d,%d): %v", bounds[i], bounds[i+1], err)
		}
		b, err := DecodeBlock(out.Text)
		if err != nil {
			t.Fatalf("DecodeBlock[%d,%d): %v", bounds[i], bounds[i+1], err)
		}
		blocks = append(blocks, b)
	}
	out, err := sw.Merge(p, blocks)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	return out
}

// sweepTestParams keeps every registered sweep to a second or two.
var sweepTestParams = Params{Seed: 2014, Trials: 200, Tasks: 2, RPCs: 50}

// sweepExperiments returns the registry entries that publish a sweep,
// so the tests below cover the next grid without being edited.
func sweepExperiments() []Experiment {
	var out []Experiment
	for _, e := range All() {
		if e.Sweep != nil {
			out = append(out, e)
		}
	}
	return out
}

// TestSweepPartitionDeterminism: for each registered sweep, the
// whole-grid run and a partitioned run that crosses the wire merge to
// byte-identical output and the same event count — the invariant the
// cluster coordinator relies on for worker-count independence. The
// whole-grid run executes each cell exactly once, and runs the event
// loop.
func TestSweepPartitionDeterminism(t *testing.T) {
	for _, exp := range sweepExperiments() {
		t.Run(exp.Name, func(t *testing.T) {
			t.Parallel()
			p := sweepTestParams
			n := exp.Sweep.Cells(p)
			p.Trace = trace.NewRecorder()
			whole, err := exp.Run(context.Background(), p)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			ran, tracks := 0, map[int]bool{}
			for _, s := range p.Trace.Spans() {
				if s.Name == "cell" {
					ran++
					tracks[s.Track] = true
				}
			}
			if ran != n || len(tracks) != n {
				t.Errorf("whole-grid run executed %d cells (%d distinct) of a %d-cell grid", ran, len(tracks), n)
			}
			split := runPartitioned(t, exp.Sweep, sweepTestParams, []int{1, n / 2, n - 1})
			if whole.Text != split.Text {
				t.Errorf("partitioned text differs from whole-grid text:\n--- whole ---\n%s\n--- split ---\n%s", whole.Text, split.Text)
			}
			if !reflect.DeepEqual(whole.Tables, split.Tables) {
				t.Errorf("partitioned tables differ from whole-grid tables")
			}
			if whole.Events == 0 || whole.Events != split.Events {
				t.Errorf("whole-grid run processed %d events, partitioned run %d", whole.Events, split.Events)
			}
		})
	}
}

// TestSweepRegistryIdentity: exactly the experiments that run the
// event loop publish a sweep, in registry order, with the paper's grid
// sizes at default parameters.
func TestSweepRegistryIdentity(t *testing.T) {
	want := []struct {
		name  string
		cells int
	}{
		{"f6dynamic", 1}, {"table8", 6 * 2}, {"fig14", 9 * 2}, {"fig17", (8 + 8 + 4) * 5},
		{"fig18", (6 + 6 + 5) * 4}, {"fig20", 5 * 3}, {"stack", 4},
		{"validate", 7}, {"prio", 2 * 2}, {"ablations", 4 + 2 + 6 + 2},
	}
	got := sweepExperiments()
	if len(got) != len(want) {
		t.Fatalf("%d experiments publish a sweep, want %d", len(got), len(want))
	}
	for i, exp := range got {
		if exp.Name != want[i].name {
			t.Errorf("sweep %d is %s, want %s", i, exp.Name, want[i].name)
		}
		if n := exp.Sweep.Cells(DefaultParams()); n != want[i].cells {
			t.Errorf("%s: %d cells, want %d", exp.Name, n, want[i].cells)
		}
	}
}

// TestSweepCancelledBeforeRun: a context cancelled before the run
// returns ctx.Err() from every sweep without executing a cell.
func TestSweepCancelledBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, exp := range sweepExperiments() {
		p := sweepTestParams
		p.Trace = trace.NewRecorder()
		if _, err := exp.Run(ctx, p); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", exp.Name, err)
		}
		if n := len(p.Trace.Spans()); n != 0 {
			t.Errorf("%s: cancelled run executed %d cells", exp.Name, n)
		}
	}
}

// TestGridLabelsCellErrors: a failing cell and a value encoding/json
// rejects are both reported against the grid's name and the cell.
func TestGridLabelsCellErrors(t *testing.T) {
	boom := errors.New("boom")
	g := Grid[int, float64, []float64]{
		Name:  "toy",
		Cells: func(Params) []int { return []int{10, 20, 30} },
		Run: func(_ Params, c int, _ Shared) (float64, error) {
			switch c {
			case 20:
				return 0, boom
			case 30:
				return math.NaN(), nil
			}
			return float64(c), nil
		},
		Merge: func(_ Params, _ []int, vals []float64) ([]float64, error) { return vals, nil },
	}
	if rows, err := g.Local(context.Background(), Params{}); err == nil {
		t.Fatalf("Local = %v, want an error", rows)
	}
	sw := g.Sweep()
	if _, err := sw.RunCells(context.Background(), Params{}, 1, 2); !errors.Is(err, boom) || !strings.Contains(err.Error(), "toy cell 1 20") {
		t.Errorf("failing cell: err = %v, want boom labelled toy cell 1 20", err)
	}
	if _, err := sw.RunCells(context.Background(), Params{}, 2, 3); err == nil || !strings.Contains(err.Error(), "toy cell 2 30") {
		t.Errorf("NaN cell: err = %v, want an encoding error labelled toy cell 2 30", err)
	}
	if _, err := sw.RunCells(context.Background(), Params{}, 2, 4); err == nil {
		t.Error("RunCells accepted a range past the grid")
	}
}

// TestSweepMergeRejectsBadCoverage: gaps, overlaps, and length
// mismatches are merge errors, never silent corruption.
func TestSweepMergeRejectsBadCoverage(t *testing.T) {
	mk := func(lo, hi int, vals []float64) CellBlock {
		data, err := json.Marshal(vals)
		if err != nil {
			t.Fatal(err)
		}
		return CellBlock{Lo: lo, Hi: hi, Data: data}
	}
	cases := map[string][]CellBlock{
		"gap":      {mk(0, 2, []float64{1, 2}), mk(3, 4, []float64{4})},
		"overlap":  {mk(0, 3, []float64{1, 2, 3}), mk(2, 4, []float64{3, 4})},
		"short":    {mk(0, 4, []float64{1, 2})},
		"missing":  {mk(0, 2, []float64{1, 2})},
		"inverted": {mk(2, 1, []float64{9})},
	}
	for name, blocks := range cases {
		if _, err := mergeBlocks[float64](4, blocks); err == nil {
			t.Errorf("%s: merge accepted invalid coverage", name)
		}
	}
}

// TestCacheKeyRange: range sub-keys are distinct from the whole-grid
// key and from each other; the degenerate (0,0) request aliases
// CacheKey so whole-job lookups are unchanged.
func TestCacheKeyRange(t *testing.T) {
	p := Params{Seed: 7}
	full := CacheKey("table8", p)
	if got := CacheKeyRange("table8", p, 0, 0); got != full {
		t.Errorf("degenerate range key %s != CacheKey %s", got, full)
	}
	a := CacheKeyRange("table8", p, 0, 6)
	b := CacheKeyRange("table8", p, 6, 12)
	c := CacheKeyRange("table8", p, 0, 12)
	keys := map[string]bool{full: true, a: true, b: true, c: true}
	if len(keys) != 4 {
		t.Errorf("range keys collide: full=%s [0,6)=%s [6,12)=%s [0,12)=%s", full, a, b, c)
	}
	// Canonicalization applies to range keys too: explicit defaults and
	// zero values share a key.
	if CacheKeyRange("table8", Params{}, 0, 6) != CacheKeyRange("table8", DefaultParams(), 0, 6) {
		t.Errorf("range keys not canonicalized over defaults")
	}
}

// Local runs the whole grid on this process's worker pool and returns
// the typed rows — the same RunCells + Merge composition, wire form
// included, that Sweep.Run and a cluster run go through. Cancelling ctx
// stops dispatching cells and returns ctx.Err().
func (g Grid[C, V, R]) Local(ctx context.Context, p Params) (rows R, err error) {
	block, err := g.runCells(ctx, p, 0, len(g.Cells(p)))
	if err != nil {
		return rows, err
	}
	return g.merge(p, []CellBlock{block})
}

// TestPacketCellStopsOnCancel: a packet cell whose context is done
// returns the context's error, not a row read off a stopped run, and
// adds at most stopPoll (sim's poll interval) events to its count. The
// cells are called directly: forEachCell would not hand out a cell
// under a done context at all.
func TestPacketCellStopsOnCancel(t *testing.T) {
	const stopPoll = 1 << 12
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := DefaultParams()
	for _, tc := range []struct {
		name string
		run  func(Shared) error
	}{
		{"fig17", func(sh Shared) error {
			g := figure17.grid()
			_, err := g.Run(p, g.Cells(p)[0], sh)
			return err
		}},
		{"table8", func(sh Shared) error {
			_, err := table8Grid.Run(p, table8Grid.Cells(p)[0], sh)
			return err
		}},
	} {
		var events uint64
		err := tc.run(Shared{ctx: ctx, fabrics: new(fabrics), events: &events})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if events > stopPoll {
			t.Errorf("%s: a cancelled cell added %d events, want at most %d", tc.name, events, stopPoll)
		}
	}
}
