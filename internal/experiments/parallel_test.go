package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/quartz-dcn/quartz/internal/trace"
)

func TestForEachCellRunsAll(t *testing.T) {
	var count int64
	seen := make([]int32, 100)
	err := forEachCell(context.Background(), 100, Params{}, func(_ context.Context, i int) error {
		atomic.AddInt64(&count, 1)
		atomic.AddInt32(&seen[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Errorf("ran %d cells, want 100", count)
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("cell %d ran %d times", i, c)
		}
	}
}

func TestForEachCellPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := forEachCell(context.Background(), 10, Params{}, func(_ context.Context, i int) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestForEachCellFewerCellsThanWorkers(t *testing.T) {
	// n below GOMAXPROCS exercises the worker clamp: every cell must
	// still run exactly once and errors must still propagate.
	for n := 2; n <= 4; n++ {
		var count int64
		seen := make([]int32, n)
		if err := forEachCell(context.Background(), n, Params{}, func(_ context.Context, i int) error {
			atomic.AddInt64(&count, 1)
			atomic.AddInt32(&seen[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if count != int64(n) {
			t.Errorf("n=%d: ran %d cells", n, count)
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("n=%d: cell %d ran %d times", n, i, c)
			}
		}
		boom := errors.New("boom")
		err := forEachCell(context.Background(), n, Params{}, func(_ context.Context, i int) error {
			if i == n-1 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("n=%d: err = %v, want boom", n, err)
		}
	}
}

func TestForEachCellSerialError(t *testing.T) {
	// One worker runs cells in order, and a failing cell is the last one
	// it runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	boom := errors.New("boom")
	for _, tc := range []struct{ n, failAt int }{{1, 0}, {10, 3}} {
		ran := 0
		err := forEachCell(context.Background(), tc.n, Params{}, func(_ context.Context, i int) error {
			ran++
			if i == tc.failAt {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || ran != tc.failAt+1 {
			t.Errorf("n=%d: err = %v after %d runs, want boom after %d", tc.n, err, ran, tc.failAt+1)
		}
	}
}

func TestForEachCellPoolStopsAtFirstError(t *testing.T) {
	// The pool must stop dispatching once a cell has failed. Cell 0 fails
	// at once; the cells already handed to the other workers are held
	// until the pool has had ample time to see the failure, so whatever
	// runs after their release was dispatched in spite of it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	boom := errors.New("boom")
	const n = 1000
	var ran int64
	release := make(chan struct{})
	err := forEachCell(context.Background(), n, Params{}, func(_ context.Context, i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			time.AfterFunc(50*time.Millisecond, func() { close(release) })
			return boom
		}
		<-release
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if got := atomic.LoadInt64(&ran); got > 10 {
		t.Errorf("%d of %d cells ran after cell 0 failed", got, n)
	}
}

// A panicking cell fails the run with the panic as its error, through
// the first-error path that also stops the pool, instead of ending the
// process: with one worker, no cell after the panicking one runs.
func TestForEachCellRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(workers)
		var ran int64
		err := forEachCell(context.Background(), 8, Params{Trace: trace.NewRecorder()}, func(_ context.Context, i int) error {
			atomic.AddInt64(&ran, 1)
			if i == 3 {
				panic("cell three exploded")
			}
			return nil
		})
		runtime.GOMAXPROCS(prev)
		if err == nil || err.Error() != "cell 3: panic: cell three exploded" {
			t.Errorf("%d workers: err = %v, want cell 3's panic", workers, err)
		}
		if workers == 1 && ran != 4 {
			t.Errorf("one worker ran %d cells, want 4 (the pool stops at the panic)", ran)
		}
	}
}

func TestForEachCellKeepsFirstError(t *testing.T) {
	// Every cell fails; exactly one of their errors must surface and it
	// must be one of the returned values, not a zero value.
	errs := make([]error, 50)
	for i := range errs {
		errs[i] = errors.New("boom")
	}
	err := forEachCell(context.Background(), len(errs), Params{}, func(_ context.Context, i int) error { return errs[i] })
	if err == nil {
		t.Fatal("err = nil, want one of the cell errors")
	}
	found := false
	for _, e := range errs {
		if errors.Is(err, e) {
			found = true
		}
	}
	if !found {
		t.Errorf("err = %v, not one of the cells' errors", err)
	}
}

func TestForEachCellZeroAndOne(t *testing.T) {
	if err := forEachCell(context.Background(), 0, Params{}, func(context.Context, int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Error(err)
	}
	ran := false
	if err := forEachCell(context.Background(), 1, Params{}, func(_ context.Context, i int) error { ran = true; return nil }); err != nil {
		t.Error(err)
	}
	if !ran {
		t.Error("single cell did not run")
	}
}

func TestForEachCellHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int64(0)
	err := forEachCell(ctx, 100, Params{}, func(_ context.Context, i int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if atomic.LoadInt64(&ran) == 100 {
		t.Error("cancelled context still ran every cell")
	}
}

// TestForEachCellSpans checks the trace hook records one wall-only
// "cell" span per cell, tracked by cell index.
func TestForEachCellSpans(t *testing.T) {
	rec := trace.NewRecorder()
	const n = 9
	err := forEachCell(context.Background(), n, Params{Trace: rec}, func(_ context.Context, i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	if len(spans) != n {
		t.Fatalf("%d spans, want %d", len(spans), n)
	}
	tracks := map[int]bool{}
	for _, s := range spans {
		if s.Name != "cell" || s.Cat != "experiment" {
			t.Fatalf("unexpected span %+v", s)
		}
		if s.Virt != 0 || s.VirtEnd != 0 {
			t.Fatalf("cell span carries virtual time: %+v", s)
		}
		tracks[s.Track] = true
	}
	if len(tracks) != n {
		t.Fatalf("%d distinct tracks, want %d", len(tracks), n)
	}
}
