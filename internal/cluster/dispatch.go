package cluster

// The sweep fan-out engine: chunk the cell grid, queue the ranges,
// run one dispatcher per alive worker, merge the blocks in cell order.
// Requeueing is the only failure-handling mechanism — a dispatcher
// that hits a retryable error puts its range back, marks its worker
// dead, and exits; the surviving dispatchers drain the queue.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/service"
	"github.com/quartz-dcn/quartz/internal/trace"
)

// cellRange is one dispatch unit: sweep cells [lo, hi).
type cellRange struct {
	lo, hi int
}

// WrapLookup returns an experiment Lookup for the coordinator's own
// service: sweep-shaped experiments have their Run replaced by the
// cluster fan-out, everything else passes through and runs locally.
// The wrapped entry drops its Sweep so the coordinator's service
// rejects cell-range sub-jobs (those belong on workers; accepting one
// here would recurse the dispatch).
func (c *Coordinator) WrapLookup(next func(string) (experiments.Experiment, bool)) func(string) (experiments.Experiment, bool) {
	if next == nil {
		next = experiments.Find
	}
	return func(name string) (experiments.Experiment, bool) {
		exp, ok := next(name)
		if !ok || exp.Sweep == nil {
			return exp, ok
		}
		sw := exp.Sweep
		exp.Sweep = nil
		exp.Run = func(ctx context.Context, p experiments.Params) (experiments.Output, error) {
			return c.RunSweep(ctx, name, sw, p)
		}
		return exp, true
	}
}

// dispatchState is one sweep's shared bookkeeping. blocks and the
// progress fields are guarded by mu; remaining counts undone ranges
// and done closes when it reaches zero.
type dispatchState struct {
	name  string
	cells int
	queue chan cellRange

	mu        sync.Mutex
	blocks    []experiments.CellBlock
	remaining int
	inflight  map[int]int // range lo → cells done so far (progress)
	finished  int         // cells in completed ranges
	err       error
	errAttrs  []any // where err happened, for the sweep-failed log record

	done   chan struct{}
	cancel context.CancelFunc
	report func(done, total int) // Params.Progress, may be nil
}

// complete records one finished block and its progress contribution.
func (d *dispatchState) complete(r cellRange, b experiments.CellBlock) {
	d.mu.Lock()
	d.blocks = append(d.blocks, b)
	d.finished += r.hi - r.lo
	delete(d.inflight, r.lo)
	d.remaining--
	last := d.remaining == 0
	d.mu.Unlock()
	d.tick()
	if last {
		close(d.done)
	}
}

// note records a partial progress observation for an in-flight range.
func (d *dispatchState) note(r cellRange, cellsDone int) {
	d.mu.Lock()
	d.inflight[r.lo] = min(cellsDone, r.hi-r.lo)
	d.mu.Unlock()
	d.tick()
}

// tick reports aggregate progress: cells in completed ranges plus the
// in-flight partials, over the whole grid.
func (d *dispatchState) tick() {
	if d.report == nil {
		return
	}
	d.mu.Lock()
	done := d.finished
	for _, v := range d.inflight {
		done += v
	}
	d.mu.Unlock()
	d.report(done, d.cells)
}

// fail records the first fatal error and cancels the sweep.
func (d *dispatchState) fail(err error, attrs ...any) {
	d.mu.Lock()
	if d.err == nil {
		d.err, d.errAttrs = err, attrs
	}
	d.mu.Unlock()
	d.cancel()
}

// RunSweep executes one sweep across the cluster: shard the grid,
// dispatch, merge. It is the Run of every sweep experiment on a
// coordinator (see WrapLookup), so the coordinator's result cache and
// job machinery wrap it exactly as they wrap a local run.
func (c *Coordinator) RunSweep(ctx context.Context, name string, sw *experiments.Sweep, p experiments.Params) (experiments.Output, error) {
	rec := p.Trace
	start := time.Now()
	n := sw.Cells(p)
	if err := experiments.CheckRange(n, 0, n); err != nil { // an empty grid would never finish
		return c.sweepFailed(name, fmt.Errorf("cluster: %s: %w", name, err))
	}
	workers := c.alive()
	if len(workers) == 0 {
		return c.sweepFailed(name, fmt.Errorf("%w (experiment %s)", ErrNoWorkers, name))
	}
	// Chunk to ~2 ranges per worker: coarse enough that per-range HTTP
	// overhead stays negligible, fine enough that a straggler worker
	// sheds load to idle peers and a death costs at most half a
	// worker's share.
	chunk := max(1, (n+2*len(workers)-1)/(2*len(workers)))
	var ranges []cellRange
	for lo := 0; lo < n; lo += chunk {
		ranges = append(ranges, cellRange{lo: lo, hi: min(lo+chunk, n)})
	}

	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	d := &dispatchState{
		name:      name,
		cells:     n,
		queue:     make(chan cellRange, len(ranges)),
		remaining: len(ranges),
		inflight:  make(map[int]int),
		done:      make(chan struct{}),
		cancel:    cancel,
		report:    p.Progress,
	}
	for _, r := range ranges {
		d.queue <- r
	}

	var wg sync.WaitGroup
	allExited := make(chan struct{})
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.dispatcher(dctx, w, d, p)
		}(w)
	}
	go func() {
		wg.Wait()
		close(allExited)
	}()

	var failErr error
	select {
	case <-d.done:
	case <-allExited: // no dispatcher is left to touch d
		failErr = fmt.Errorf("cluster: %s: every worker died with %d ranges pending", name, d.remaining)
	case <-dctx.Done():
		failErr = ctx.Err()
	}
	cancel()
	wg.Wait() // dispatchers observe dctx and unwind; d.err is settled after
	if d.err != nil {
		failErr = d.err
	}
	rec.Add(trace.Span{
		Name: "dispatch", Cat: "cluster", Track: trace.CoordinatorTrack,
		Wall: rec.Since(start), WallDur: time.Since(start).Nanoseconds(),
	}.Annotate("workers", int64(len(workers))).Annotate("ranges", int64(len(ranges))).Annotate("cells", int64(n)))
	if failErr != nil {
		return c.sweepFailed(name, failErr, d.errAttrs...)
	}

	blocks := d.blocks
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Lo < blocks[j].Lo })
	mstart := time.Now()
	out, err := sw.Merge(p, blocks)
	rec.Add(trace.Span{
		Name: "merge", Cat: "cluster", Track: trace.CoordinatorTrack,
		Wall: rec.Since(mstart), WallDur: time.Since(mstart).Nanoseconds(),
	}.Annotate("blocks", int64(len(blocks))))
	if err != nil {
		return c.sweepFailed(name, fmt.Errorf("cluster: %s: %w", name, err))
	}
	c.mCells.Add(uint64(n))
	c.mSweeps["done"].Inc()
	return out, nil
}

// sweepFailed counts and logs a sweep that ends in err.
func (c *Coordinator) sweepFailed(name string, err error, attrs ...any) (experiments.Output, error) {
	c.mSweeps["failed"].Inc()
	slog.Error("cluster: sweep failed", append([]any{"experiment", name, "err", err}, attrs...)...)
	return experiments.Output{}, err
}

// dispatcher drains the range queue against one worker until the
// queue is idle-forever (sweep done, dctx cancelled) or the worker
// fails. Retryable failures requeue the range and kill the
// dispatcher; fatal ones kill the sweep.
func (c *Coordinator) dispatcher(dctx context.Context, w *worker, d *dispatchState, p experiments.Params) {
	for {
		select {
		case <-dctx.Done():
			return
		case r := <-d.queue:
			c.mDispatches.Inc()
			block, rerr := c.runRange(dctx, w, d, p, r)
			if rerr == nil {
				d.complete(r, block)
				continue
			}
			if rerr.fatal {
				d.fail(fmt.Errorf("cluster: %s cells [%d,%d) on %s: %w", d.name, r.lo, r.hi, w.url, rerr.err),
					"worker", w.url, "lo", r.lo, "hi", r.hi, "trace", rerr.trace)
				return
			}
			if dctx.Err() != nil {
				return // cancelled mid-range; not a worker fault
			}
			// Retryable: back on the queue for a survivor, worker dead
			// until its heartbeat revives it.
			c.mRetries.Inc()
			slog.Warn("cluster: range requeued", "experiment", d.name, "worker", w.url,
				"lo", r.lo, "hi", r.hi, "trace", rerr.trace, "err", rerr.err)
			w.markDead(rerr.err)
			p.Trace.Add(trace.Span{Name: "retry", Cat: "cluster", Track: trace.CoordinatorTrack}.
				Annotate("lo", int64(r.lo)).Annotate("hi", int64(r.hi)))
			d.queue <- r
			return
		}
	}
}

// rangeErr classifies a range failure: fatal errors abort the sweep,
// retryable ones requeue the range. trace is the worker job's trace id.
type rangeErr struct {
	err   error
	fatal bool
	trace string
}

func retryable(err error) *rangeErr { return &rangeErr{err: err} }
func fatal(err error) *rangeErr     { return &rangeErr{err: err, fatal: true} }

// runRange executes one cell range on one worker: submit (honoring
// 429 backpressure), follow the job's event stream to its terminal
// state, fetch the block and hold it to what was asked.
func (c *Coordinator) runRange(dctx context.Context, w *worker, d *dispatchState, p experiments.Params, r cellRange) (_ experiments.CellBlock, rerr *rangeErr) {
	rstart := time.Now()
	var view service.View
	defer func() {
		if rerr != nil {
			rerr.trace = view.TraceID
		}
	}()
	for {
		v, status, retryAfter, errMsg, err := c.submitCells(dctx, w.url, d.name, p, r)
		if err != nil {
			return experiments.CellBlock{}, retryable(err)
		}
		switch {
		case status < 300:
			view = v
		case status == http.StatusTooManyRequests:
			// Worker queue full: honor its jittered Retry-After, then
			// offer the range again. The worker is healthy — just busy —
			// so this stays on the same dispatcher.
			if retryAfter <= 0 {
				retryAfter = time.Second
			}
			select {
			case <-dctx.Done():
				return experiments.CellBlock{}, retryable(dctx.Err())
			case <-time.After(retryAfter):
			}
			continue
		case status >= 500:
			// Draining (503) or a broken daemon (5xx): the worker is the
			// problem, not the cells.
			return experiments.CellBlock{}, retryable(fmt.Errorf("submit failed (HTTP %d): %s", status, errMsg))
		default:
			// 400/404: the worker disagrees about the experiment or the
			// grid — a deployment mismatch no retry fixes.
			return experiments.CellBlock{}, fatal(fmt.Errorf("submit rejected (HTTP %d): %s", status, errMsg))
		}
		break
	}
	// A worker that answers anything but what was asked is at fault, not the sweep.
	if want := experiments.CacheKeyRange(d.name, p, r.lo, r.hi); view.Key != want {
		return experiments.CellBlock{}, retryable(fmt.Errorf("job %s runs under key %s, want %s", view.ID, view.Key, want))
	}

	if !view.State.Terminal() { // a cache hit is born done: nothing to follow
		var err error
		view.State, view.Error, err = c.followJob(dctx, w, view.ID, func(done int) { d.note(r, done) })
		if err != nil {
			if dctx.Err() != nil {
				c.cancelJob(w.url, view.ID)
			}
			return experiments.CellBlock{}, retryable(fmt.Errorf("job %s: %w", view.ID, err))
		}
	}

	switch {
	case view.State == service.StateDone:
		res, err := c.getResult(dctx, w.url, view.ID)
		if err != nil {
			return experiments.CellBlock{}, retryable(err)
		}
		block, err := checkBlock(res.Text, r)
		if err != nil {
			return experiments.CellBlock{}, retryable(fmt.Errorf("job %s: %w", view.ID, err))
		}
		p.Trace.Add(trace.Span{
			Name: "cell-range", Cat: "cluster", Track: r.lo,
			Wall: p.Trace.Since(rstart), WallDur: time.Since(rstart).Nanoseconds(),
		}.Annotate("lo", int64(r.lo)).Annotate("hi", int64(r.hi)))
		return block, nil
	case strings.Contains(view.Error, "deadline"):
		// The worker timed the sub-job out — an overloaded or wedged
		// daemon, not a property of the cells. Another worker may finish
		// in time.
		return experiments.CellBlock{}, retryable(fmt.Errorf("job %s: %s", view.ID, view.Error))
	case view.State == service.StateCancelled:
		return experiments.CellBlock{}, retryable(fmt.Errorf("job %s cancelled on the worker", view.ID))
	default:
		// A real experiment failure is deterministic: it would fail the
		// same way on every worker, so retrying it is pure waste.
		return experiments.CellBlock{}, fatal(errors.New(view.Error))
	}
}

// checkBlock decodes a worker's result and holds it to the range asked
// for: cells [lo, hi), one value per cell.
func checkBlock(text string, r cellRange) (experiments.CellBlock, error) {
	block, err := experiments.DecodeBlock(text)
	if err != nil {
		return experiments.CellBlock{}, err
	}
	if block.Lo != r.lo || block.Hi != r.hi {
		return experiments.CellBlock{}, fmt.Errorf("returned cells [%d,%d), want [%d,%d)", block.Lo, block.Hi, r.lo, r.hi)
	}
	var vals []json.RawMessage
	if err := json.Unmarshal(block.Data, &vals); err != nil || len(vals) != r.hi-r.lo {
		return experiments.CellBlock{}, fmt.Errorf("block [%d,%d) carries %d values (%v)", r.lo, r.hi, len(vals), err)
	}
	return block, nil
}
