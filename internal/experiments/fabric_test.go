package experiments

import (
	"context"
	"runtime"
	"testing"

	"github.com/quartz-dcn/quartz/internal/trace"
)

// buildSpans returns the "build" spans of rec, failing unless each lies
// inside the "cell" span of its own track.
func buildSpans(t *testing.T, rec *trace.Recorder) []trace.Span {
	t.Helper()
	cells := map[int]trace.Span{}
	for _, s := range rec.Spans() {
		if s.Name == "cell" {
			cells[s.Track] = s
		}
	}
	var builds []trace.Span
	for _, s := range rec.Spans() {
		if s.Name != "build" {
			continue
		}
		c, ok := cells[s.Track]
		if !ok || s.Cat != c.Cat || s.Wall < c.Wall || s.Wall+s.WallDur > c.Wall+c.WallDur {
			t.Errorf("build span %+v is not inside its cell's span %+v", s, c)
		}
		builds = append(builds, s)
	}
	return builds
}

// TestGridBuildsEachFabricOnce: one RunCells call builds each distinct
// architecture once, however many cells name it and however many
// workers run them (four here, so `make race` sees the sharing), and a
// second call starts from nothing.
func TestGridBuildsEachFabricOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		name   string
		builds int // distinct architectures in the grid
	}{
		{"fig17", len(Figure17Architectures)},
		{"fig18", len(Figure18Architectures)},
		{"table8", 6}, // table8Scenarios names six, none of them seeded
	} {
		t.Run(tc.name, func(t *testing.T) {
			exp, ok := Find(tc.name)
			if !ok {
				t.Fatalf("no experiment %q", tc.name)
			}
			p := sweepTestParams
			p.Trace = trace.NewRecorder()
			whole, err := exp.Run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			n := exp.Sweep.Cells(p)
			if got := len(buildSpans(t, p.Trace)); got != tc.builds || got >= n {
				t.Errorf("%d cells built %d architectures, want %d", n, got, tc.builds)
			}

			// One cell per call: every cell builds its own, and the output
			// is the same.
			p.Trace = trace.NewRecorder()
			var blocks []CellBlock
			for i := 0; i < n; i++ {
				b, err := exp.Sweep.RunCells(context.Background(), p, i, i+1)
				if err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, b)
			}
			if got := len(p.Trace.Spans()); got != 2*n {
				t.Errorf("%d one-cell calls recorded %d spans, want a cell and a build each", n, got)
			}
			alone, err := exp.Sweep.Merge(p, blocks)
			if err != nil {
				t.Fatal(err)
			}
			if alone.Text != whole.Text {
				t.Errorf("cells sharing architectures print\n%s\ncells building their own print\n%s", whole.Text, alone.Text)
			}
		})
	}
}

// TestArchUsesRandMatchesBuilders: the architectures the memo keys by
// seed are exactly the ones whose builders need the RNG.
func TestArchUsesRandMatchesBuilders(t *testing.T) {
	for _, name := range []string{
		"two-tier tree", "single Quartz ring", "three-tier tree", "jellyfish",
		"quartz in core", "quartz in edge", "quartz in edge and core", "quartz in jellyfish",
	} {
		_, err := buildArch(name, nil)
		if needs := err != nil; needs != archUsesRand(name) {
			t.Errorf("%s: builder needs a Rand = %v (err %v), archUsesRand = %v", name, needs, err, archUsesRand(name))
		}
	}
}

// TestPacketCellAllocBudget is the allocation gate for the packet
// grids: what a run allocates on one core depends on the seed alone,
// not on the machine. fig17 at Tasks 2 (30 cells, ≈ 1.0 M events): the
// budget sits between the 4.4 MB / 10.3 k mallocs measured with the
// cells borrowing their stream generators from the run's free list and
// the 8.1 MB / 11.6 k they cost when each stream allocated its own; a
// rebuild per cell plus a queue that allocates as it runs cost 26.5 MB /
// 51.3 k. fig20 (15 cells, ≈ 0.83 M events): its three fabrics come from
// the run's memo and its streams borrow generators; the serial runner it
// replaced allocated 0.98 MB, and a fabric rebuild per cell costs
// ≈ 4.1 k mallocs.
func TestPacketCellAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name           string
		bytes, mallocs uint64
	}{
		{"fig17", 6 << 20, 11_000},
		{"fig20", 8 << 20 / 10, 2_000},
	} {
		exp, _ := Find(tc.name)
		p := Params{Seed: 2014, Trials: 200, Tasks: 2, RPCs: 50}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := exp.Run(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%s: %.2f MB, %d mallocs", tc.name, float64(bytes)/(1<<20), mallocs)
		if bytes > tc.bytes || mallocs > tc.mallocs {
			t.Errorf("%s allocated %d bytes in %d mallocs, budget %d bytes / %d mallocs",
				tc.name, bytes, mallocs, tc.bytes, tc.mallocs)
		}
	}
}
