package experiments

// The one way an experiment that runs the event loop is written: a cell
// list, a one-cell function and a pure merge (Grid). Everything else —
// range checking, the worker pool, per-cell error labels, the wire
// form, the event count, progress and trace spans, the Sweep the
// cluster coordinator (internal/cluster) shards — is derived here, once.
//
// Any partition of [0, n) into contiguous ranges, executed anywhere and
// in any order, merges back into the same bytes a single process
// produces, because the single-process path runs through the very same
// RunCells + Merge pair, wire form included. Partial results travel as
// CellBlocks: the range bounds plus a JSON array of per-cell values.
// encoding/json renders float64s in their shortest round-tripping
// form, so a block that crosses the wire decodes to bit-identical
// values.

import (
	"context"
	"encoding/json"
	"fmt"
)

// Grid declares an experiment whose work is a grid of independent
// simulations. All four funcs are pure with respect to Params (hooks
// excluded).
//
// A cell owns everything it mutates — queues, pools, engine, RNG — so
// cells run in any order on any machine. What is immutable, the
// architectures, is built once per runCells call and read by every cell
// that names it (fabric.go).
//
// V is a wire value: it crosses encoding/json between Run and Merge
// even in a single process, so it has exported fields, finite floats
// and no maps keyed by anything but strings. C never leaves the
// process.
type Grid[C, V, R any] struct {
	// Name labels errors.
	Name string
	// Cells lists the grid under p, in merge order.
	Cells func(p Params) []C
	// Run executes one cell; sh hands it the pool's context and the
	// run's shared architectures and generators, and counts its events
	// (sh.run, sh.AddEvents).
	Run func(p Params, c C, sh Shared) (V, error)
	// Merge assembles the experiment's typed rows from the whole grid's
	// values; vals[i] belongs to cells[i].
	Merge func(p Params, cells []C, vals []V) (R, error)
	// Render turns the rows into the registry output.
	Render func(rows R) Output
}

// runCells executes cells [lo, hi) on the worker pool and encodes
// their values as one block. It is the only caller of forEachCell.
func (g Grid[C, V, R]) runCells(ctx context.Context, p Params, lo, hi int) (CellBlock, error) {
	cells := g.Cells(p)
	if err := CheckRange(len(cells), lo, hi); err != nil {
		return CellBlock{}, fmt.Errorf("%s: %w", g.Name, err)
	}
	vals := make([]json.RawMessage, hi-lo)
	events := make([]uint64, hi-lo)
	built := &fabrics{cells: hi - lo}
	err := forEachCell(ctx, hi-lo, p, func(ctx context.Context, k int) error {
		v, err := g.Run(p, cells[lo+k], Shared{ctx, built, p.Trace, k, &events[k]})
		if err == nil {
			vals[k], err = json.Marshal(v)
		}
		if err != nil {
			return fmt.Errorf("%s cell %d %+v: %w", g.Name, lo+k, cells[lo+k], err)
		}
		return nil
	})
	if err != nil {
		return CellBlock{}, err
	}
	data, err := json.Marshal(vals)
	if err != nil {
		return CellBlock{}, fmt.Errorf("%s: encoding cells [%d,%d): %w", g.Name, lo, hi, err)
	}
	block := CellBlock{Lo: lo, Hi: hi, Data: data}
	for _, n := range events {
		block.Events += n
	}
	return block, nil
}

// merge decodes blocks covering the whole grid and merges them.
func (g Grid[C, V, R]) merge(p Params, blocks []CellBlock) (rows R, err error) {
	cells := g.Cells(p)
	vals, err := mergeBlocks[V](len(cells), blocks)
	if err != nil {
		return rows, fmt.Errorf("%s: %w", g.Name, err)
	}
	return g.Merge(p, cells, vals)
}

// Sweep publishes the grid for the registry, the service's cell-range
// sub-jobs and the cluster coordinator.
func (g Grid[C, V, R]) Sweep() *Sweep {
	return &Sweep{
		Cells:    func(p Params) int { return len(g.Cells(p)) },
		RunCells: g.runCells,
		Merge: func(p Params, blocks []CellBlock) (Output, error) {
			rows, err := g.merge(p, blocks)
			if err != nil {
				return Output{}, err
			}
			out := g.Render(rows)
			for _, b := range blocks {
				out.Events += b.Events
			}
			return out, nil
		},
	}
}

// CellBlock is the result of executing one contiguous cell range
// [Lo, Hi) of a sweep grid: the experiment-specific per-cell values,
// JSON-encoded so blocks can cross process boundaries, and the number
// of simulator events the range's cells processed.
type CellBlock struct {
	Lo     int             `json:"lo"`
	Hi     int             `json:"hi"`
	Events uint64          `json:"events"`
	Data   json.RawMessage `json:"data"`
}

// Sweep is what a Grid looks like from outside the package: the grid's
// size, a cell-range executor, and a deterministic merge. Cells(p) is
// constant for a given p, and RunCells results depend only on
// (p, lo, hi).
type Sweep struct {
	// Cells returns the grid size under p.
	Cells func(p Params) int
	// RunCells executes cells [lo, hi) and returns their values as one
	// block. Progress ticks (p.Progress) count within the range:
	// done ∈ [0, hi-lo].
	RunCells func(ctx context.Context, p Params, lo, hi int) (CellBlock, error)
	// Merge combines blocks covering exactly [0, Cells(p)) — disjoint,
	// sorted ascending by Lo — into the experiment's final Output.
	Merge func(p Params, blocks []CellBlock) (Output, error)
}

// Run executes the whole grid locally: RunCells(0, n) followed by
// Merge. Registry entries that publish a Sweep use this as their Run,
// so single-process output and cluster-merged output are byte-identical
// by construction.
func (sw *Sweep) Run(ctx context.Context, p Params) (Output, error) {
	n := sw.Cells(p)
	block, err := sw.RunCells(ctx, p, 0, n)
	if err != nil {
		return Output{}, err
	}
	return sw.Merge(p, []CellBlock{block})
}

// RunRange executes cells [lo, hi) and returns the block wrapped in an
// Output whose Text is the JSON-encoded CellBlock — the wire form a
// cell-range sub-job (internal/service Request.Cells) reports back to
// the cluster coordinator. DecodeBlock inverts it.
func (sw *Sweep) RunRange(ctx context.Context, p Params, lo, hi int) (Output, error) {
	block, err := sw.RunCells(ctx, p, lo, hi)
	if err != nil {
		return Output{}, err
	}
	enc, err := json.Marshal(block)
	if err != nil {
		return Output{}, fmt.Errorf("encoding cell block [%d,%d): %w", lo, hi, err)
	}
	return Output{Text: string(enc)}, nil
}

// DecodeBlock parses the Output.Text of a cell-range execution back
// into its CellBlock.
func DecodeBlock(text string) (CellBlock, error) {
	var b CellBlock
	if err := json.Unmarshal([]byte(text), &b); err != nil {
		return CellBlock{}, fmt.Errorf("decoding cell block: %w", err)
	}
	if b.Hi <= b.Lo {
		return CellBlock{}, fmt.Errorf("decoding cell block: empty range [%d,%d)", b.Lo, b.Hi)
	}
	return b, nil
}

// mergeBlocks decodes blocks covering exactly [0, n) into one slice of
// per-cell values in cell order, rejecting gaps, overlaps, and blocks
// whose payload length disagrees with their bounds.
func mergeBlocks[T any](n int, blocks []CellBlock) ([]T, error) {
	vals := make([]T, 0, n)
	next := 0
	for _, b := range blocks {
		if b.Lo != next {
			return nil, fmt.Errorf("merging cell blocks: want cells from %d, got block [%d,%d)", next, b.Lo, b.Hi)
		}
		if b.Hi <= b.Lo || b.Hi > n {
			return nil, fmt.Errorf("merging cell blocks: bad range [%d,%d) of %d cells", b.Lo, b.Hi, n)
		}
		var part []T
		if err := json.Unmarshal(b.Data, &part); err != nil {
			return nil, fmt.Errorf("merging cell blocks: block [%d,%d): %w", b.Lo, b.Hi, err)
		}
		if len(part) != b.Hi-b.Lo {
			return nil, fmt.Errorf("merging cell blocks: block [%d,%d) carries %d cells", b.Lo, b.Hi, len(part))
		}
		vals = append(vals, part...)
		next = b.Hi
	}
	if next != n {
		return nil, fmt.Errorf("merging cell blocks: cells [%d,%d) missing", next, n)
	}
	return vals, nil
}

// CheckRange validates a requested cell range against a grid of n
// cells: RunCells applies it, and callers that must reject a range
// before queueing it (internal/service) call it themselves.
func CheckRange(n, lo, hi int) error {
	if lo < 0 || hi <= lo || hi > n {
		return fmt.Errorf("cell range [%d,%d) outside grid of %d cells", lo, hi, n)
	}
	return nil
}
