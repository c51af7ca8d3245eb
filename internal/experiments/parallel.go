package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/quartz-dcn/quartz/internal/trace"
)

// forEachCell runs fn(pool, i) for i in [0, n) on a bounded worker pool
// and returns the first error; pool is done once ctx is or a cell has
// failed. Each experiment cell is an independent
// simulation with its own engine and seed, so the sweeps parallelize
// perfectly; results must be written to disjoint slots by index.
//
// p carries the observer hooks. p.Progress, when non-nil, is called
// after each successful cell with the number of cells completed so far
// and n. Calls are serialized (never concurrent), but completion order
// is nondeterministic across workers — only the final (n, n) call is
// guaranteed to be last. p.Trace, when non-nil, records one wall-only
// "cell" span per cell in the "experiment" category, Track = cell
// index.
//
// Cancelling ctx, or a cell failing, stops dispatching new cells and
// cancels pool, which cells already running may watch; the first cell
// error (else ctx.Err()) is returned. A cell that panics fails with
// the panic as its error, so one bad cell fails its run, not the
// process.
func forEachCell(ctx context.Context, n int, p Params, fn func(pool context.Context, i int) error) error {
	if rec := p.Trace; rec.Enabled() {
		inner := fn
		fn = func(pool context.Context, i int) error {
			start := time.Now()
			err := inner(pool, i)
			rec.Add(trace.Span{
				Name: "cell", Cat: "experiment", Track: i,
				Wall: rec.Since(start), WallDur: time.Since(start).Nanoseconds(),
			})
			return err
		}
	}
	done := 0
	var progressMu sync.Mutex
	tick := func() {
		if p.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		p.Progress(done, n)
		progressMu.Unlock()
	}
	// A failing cell cancels pool, which stops the dispatch loop below.
	pool, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     = make(chan int)
	)
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := runCell(fn, pool, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
					return
				}
				tick()
			}
		}()
	}
	for i := 0; i < n && pool.Err() == nil; i++ {
		select {
		case <-pool.Done():
		case next <- i:
		}
	}
	close(next)
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// runCell calls fn for cell i and turns a panic into the cell's error.
// It is its own function so the deferred recover is open-coded and
// costs a cell no allocation.
func runCell(fn func(pool context.Context, i int) error, pool context.Context, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell %d: panic: %v", i, r)
		}
	}()
	return fn(pool, i)
}
