package experiments

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/sim"
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
// seed are exactly the designs marked Random, whose builders need the
// RNG; the rest are built once whatever the seed.
func TestArchUsesRandMatchesBuilders(t *testing.T) {
	sh := Shared{fabrics: new(fabrics)}
	for _, d := range core.Designs {
		a, err := sh.Arch(Fabric{Name: d.Name, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		b, err := sh.Arch(Fabric{Name: d.Name, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if again, _ := sh.Arch(Fabric{Name: d.Name, Seed: 1}); again != a {
			t.Errorf("%s: seed 1 built twice", d.Name)
		}
		if keyed := a != b; keyed != d.Random {
			t.Errorf("%s: memo keyed by seed = %v, Random = %v", d.Name, keyed, d.Random)
		}
		if _, err := d.Build(core.ArchParams{}, nil); (err != nil) != d.Random {
			t.Errorf("%s: builder needs a Rand = %v (err %v), Random = %v", d.Name, err != nil, err, d.Random)
		}
	}
}

// AllocBand is how many mallocs a warm run may make beyond the count
// its budget records: at GOMAXPROCS 1, after a garbage collection, a
// warm run repeats its count to within two.
const AllocBand = 4

// CheckAllocBudget runs run once to warm up, then twice more on one
// core, each after a garbage collection, and takes the smaller of the
// two: that may be at most mallocs + AllocBand allocations and bytes
// plus 5 %. (One process in ten has the runtime allocate a dozen times
// inside one of the runs; it never did in both.) The race detector
// allocates on its own, tens of mallocs more or less from run to run,
// so under it both budgets are a third wider.
func CheckAllocBudget(t *testing.T, name string, bytes, mallocs uint64, run func() error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := run(); err != nil {
		t.Fatal(err)
	}
	gotBytes, gotMallocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 2 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		gotBytes = min(gotBytes, after.TotalAlloc-before.TotalAlloc)
		gotMallocs = min(gotMallocs, after.Mallocs-before.Mallocs)
	}
	t.Logf("%s: %d bytes, %d mallocs", name, gotBytes, gotMallocs)
	bytes, mallocs = bytes+bytes/20, mallocs+AllocBand
	if raceDetector {
		bytes, mallocs = bytes*4/3, mallocs*4/3
	}
	if gotBytes > bytes || gotMallocs > mallocs {
		t.Errorf("%s allocated %d bytes in %d mallocs, budget %d bytes / %d mallocs",
			name, gotBytes, gotMallocs, bytes, mallocs)
	}
}

// TestPacketCellAllocBudget is the allocation gate for the packet
// grids: what a run allocates on one core depends on the seed alone,
// not on the machine. Every row runs at Tasks 2, and each budget is
// what a warm run of it costs (CheckAllocBudget adds the band), so a
// cell that allocates once more fails fig17's, fig18's, table8's,
// fig20's, ablations' and fig14's row. The count depends on the Go
// toolchain (these are go1.24's); a toolchain change regenerates the
// budgets as a reviewed diff. What the same grids cost before:
//
//   - before every packet run was built by Shared.Build (mallocs):
//     fig17 1 571, fig18 1 751, table8 1 526, fig20 653, ablations
//     2 029, f6dynamic 565, stack 336, fig14 1 861 and prio 470 (the
//     §6 testbed built its prototype and a network per cell), and
//     sweep.scattergather 3 533 (TestScenarioSweepAllocBudget: a fabric
//     and a network per scenario cell).
//   - fig17 (30 cells, ≈ 1.0 M events): a table per host cost 2.5 MB /
//     3.9 k mallocs; a network per cell 4.4 MB / 10.3 k; before that, a
//     generator per stream 8.1 MB / 11.6 k, and a fabric rebuild per
//     cell plus a queue that allocated as it ran 26.5 MB / 51.3 k.
//   - fig18 (24 cells): 1.9 MB / 3.6 k with a table per host, 3.2 MB /
//     7.8 k with a network per cell.
//   - table8 (12 cells on six fabrics): 3.5 MB / 4.3 k with a table per
//     host, 4.5 MB / 12.2 k with a network per cell.
//   - fig20 (15 cells, ≈ 0.83 M events): 0.32 MB / 0.9 k with a table
//     per host, 0.57 MB / 1.6 k with a network per cell, 0.98 MB in the
//     serial runner it replaced, and a fabric rebuild per cell costs
//     ≈ 4.1 k mallocs.
func TestPacketCellAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name           string
		bytes, mallocs uint64
	}{
		{"fig17", 1_046_112, 1_331},
		{"fig18", 799_888, 1_463},
		{"table8", 1_816_336, 1_413},
		{"fig20", 283_808, 586},
		{"ablations", 2_437_776, 1_886},
		{"f6dynamic", 734_192, 565},
		{"stack", 467_592, 329},
		{"fig14", 428_488, 743},
		{"prio", 149_504, 322},
	} {
		exp, _ := Find(tc.name)
		p := Params{Seed: 2014, Trials: 200, Tasks: 2, RPCs: 50}
		CheckAllocBudget(t, tc.name, tc.bytes, tc.mallocs, func() error {
			_, err := exp.Run(context.Background(), p)
			return err
		})
	}
}

// TestAnalyticAllocBudget is the analytic experiments' counterpart of
// TestPacketCellAllocBudget: each budget is ≈ 25 % over what the
// experiment costs at seed 2014 on one core (fig5 1.1 MB in 620 mallocs,
// fig6 0.19 MB in 119, fig10 2.05 MB in 787, oversub 1.95 MB in 436,
// table9 2.5 MB in 707), and below what it cost while channels were
// tested link by link and flows were built a pair at a time (2.0 MB /
// 4 435, 9.7 MB / 43 345, 8.1 MB / 5 125), for fig10 and oversub while
// every split of the VLB sweep copied and compiled its own flows (4.5 MB
// / 1 116, 7.8 MB / 825) and while the mesh's VLB flows were built as
// templates before they were compiled (2.1 MB / 843, 2.4 MB / 458), and,
// for the last three, while every node had a backing array of ports and
// a formatted name of its own (1 815, 2 535 and 2.8 MB / 13 819
// mallocs). The fig10 and oversub malloc budgets leave room for what the
// race detector adds (≈ 910 and 560 under make race); fig6 and table9
// have wider budgets of their own under the detector (143–190 and
// 866–901 mallocs there). It fails
// if first-fit or a flow builder starts allocating per channel, per arc
// or per host pair again, the VLB sweep per split, a graph per node, or
// Figure 6's exact count per cut set.
func TestAnalyticAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name           string
		bytes, mallocs uint64
		raceMallocs    uint64 // the malloc budget under the race detector, if wider
	}{
		{"fig5", 14 << 20 / 10, 800, 0},
		{"fig6", 24 << 20 / 100, 150, 240},
		{"fig10", 26 << 20 / 10, 1_000, 0},
		{"oversub", 24 << 20 / 10, 620, 0},
		{"table9", 32 << 20 / 10, 900, 1_100},
	} {
		exp, _ := Find(tc.name)
		p := Params{Seed: 2014, Trials: 5000}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := exp.Run(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%s: %.2f MB, %d mallocs", tc.name, float64(bytes)/(1<<20), mallocs)
		budget := tc.mallocs
		if raceDetector {
			budget = max(budget, tc.raceMallocs)
		}
		if bytes > tc.bytes || mallocs > budget {
			t.Errorf("%s allocated %d bytes in %d mallocs, budget %d bytes / %d mallocs",
				tc.name, bytes, mallocs, tc.bytes, budget)
		}
	}
}

// TestConcurrentCellsShareNetworks runs two cells at a time on one
// run's network free list (`make race` has this package in scope for
// it), alternating between two architectures round by round. Both cells
// borrow together, simulate together and release together, so no
// network may be in both cells, and every one comes back: each
// architecture's list ends holding exactly the two networks its rounds
// needed at once. A network that had a fault injector is not taken back.
func TestConcurrentCellsShareNetworks(t *testing.T) {
	const rounds = 20
	var (
		run    fabrics
		archs  [2]*core.Architecture
		events [2]uint64
		mu     sync.Mutex
		live   = map[*netsim.Network]bool{}
		wg     sync.WaitGroup
		meet   = make(chan struct{}) // worker 0 sends, worker 1 receives
	)
	for k := range archs {
		a, err := Shared{fabrics: &run}.Arch(fig20Systems[k+1])
		if err != nil {
			t.Fatal(err)
		}
		archs[k] = a
	}
	rendezvous := [2]func(){func() { meet <- struct{}{} }, func() { <-meet }}
	cell := func(worker, round int) {
		sh := Shared{ctx: context.Background(), fabrics: &run, events: &events[worker]}
		arch := archs[round%2]
		pk, err := sh.Build(PacketRun{Arch: arch}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		net := pk.Net
		mu.Lock()
		if live[net] {
			t.Errorf("worker %d round %d: network %p is already in a live cell", worker, round, net)
		}
		live[net] = true
		mu.Unlock()
		rendezvous[worker]() // both cells hold their networks

		src, dst := arch.Graph.HostsInRack(0), arch.Graph.HostsInRack(1)
		for i := 0; i <= round%4; i++ {
			net.Unicast(1, src[worker], dst[i], 1500, 1)
		}
		if err := sh.Run(net, sim.MaxTime); err != nil {
			t.Error(err)
		}
		if got := pk.Harness.Latency(1).N(); got != int64(round%4+1) {
			t.Errorf("worker %d round %d: %d deliveries, want %d", worker, round, got, round%4+1)
		}
		rendezvous[worker]() // neither has released yet

		mu.Lock()
		delete(live, net)
		mu.Unlock()
		pk.Release()
		rendezvous[worker]() // everything is back before the next round borrows
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				cell(w, round)
			}
		}()
	}
	wg.Wait()
	// free counts the released networks built for arch.
	free := func(arch *core.Architecture) (n int) {
		for _, q := range run.nets {
			if q.key == (netKey{arch: arch}) {
				n++
			}
		}
		return n
	}
	seen := map[*netsim.Network]bool{}
	for k, a := range archs {
		if n := free(a); n != 2 {
			t.Errorf("architecture %d: free list holds %d networks, want the 2 its rounds had out at once", k, n)
		}
	}
	for _, q := range run.nets {
		if seen[q.Net] {
			t.Errorf("network %p is on a free list twice", q.Net)
		}
		seen[q.Net] = true
	}

	sh := Shared{fabrics: &run, events: &events[0]}
	pk, err := sh.Build(PacketRun{Arch: archs[0]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pk.Net.Faults()
	pk.Release()
	if n := free(archs[0]); n != 1 {
		t.Errorf("after a faulted network's release the free list holds %d networks, want 1", n)
	}
}

// TestStackCellsKeepTheirModels: the free list never hands a cell a
// network built with another host model or switch override. Three of
// stack's cells share the three-tier tree, with two host models and two
// switch overrides; run on one run's free lists one after another, in
// either order, they must print the golden text.
func TestStackCellsKeepTheirModels(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "stack.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
		sh := Shared{ctx: context.Background(), fabrics: new(fabrics), events: new(uint64)}
		rtts := make([]float64, len(stackSteps))
		for _, i := range order {
			if rtts[i], err = stackGrid.Run(Params{}, stackSteps[i], sh); err != nil {
				t.Fatal(err)
			}
		}
		rows, err := stackGrid.Merge(Params{}, stackSteps, rtts)
		if err != nil {
			t.Fatal(err)
		}
		if got := stackGrid.Render(rows).Text; got != string(want) {
			t.Errorf("stack's cells in order %v print\n%s\nwant\n%s", order, got, want)
		}
	}
}
