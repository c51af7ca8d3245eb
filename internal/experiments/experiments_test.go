package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/flowsim"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/traffic"
	"github.com/quartz-dcn/quartz/internal/wdm"
)

func TestFigure5GreedyTracksOptimal(t *testing.T) {
	rows := Figure5(41, 1)
	if len(rows) != 40 {
		t.Fatalf("rows = %d, want 40", len(rows))
	}
	for _, r := range rows {
		if r.Greedy < r.Optimal {
			t.Errorf("m=%d: greedy %d below optimum %d (impossible)", r.RingSize, r.Greedy, r.Optimal)
		}
		// Figure 5's visual claim: greedy nearly coincides with the ILP.
		if float64(r.Greedy) > float64(r.Optimal)*1.15+2 {
			t.Errorf("m=%d: greedy %d strays from optimum %d", r.RingSize, r.Greedy, r.Optimal)
		}
	}
	// The 160-channel fiber admits rings up to 35 switches and no more.
	last35 := rows[35-2]
	first36 := rows[36-2]
	if last35.Optimal > wdm.MaxChannelsPerFiber {
		t.Errorf("m=35 needs %d channels, expected to fit 160", last35.Optimal)
	}
	if first36.Optimal <= wdm.MaxChannelsPerFiber {
		t.Errorf("m=36 needs %d channels, expected to exceed 160", first36.Optimal)
	}
	out := RenderFigure5(rows)
	if !strings.Contains(out, "maximum single-fiber ring size: 35") {
		t.Errorf("render missing ring-size conclusion:\n%s", out)
	}
}

// Figure 6's sentences in §3.5, against the exact sweep at the
// benchmark's seed.
func TestFigure6HeadlineClaims(t *testing.T) {
	grid, err := Figure6(context.Background(), 2014)
	if err != nil {
		t.Fatal(err)
	}
	// One ring, one cut: a cut meets 136 of the 528 arcs on average
	// (the ring's (M² − 1)/8 wavelengths over C(33, 2)); no partition.
	r11 := grid[0][0]
	if want := 136.0 / 528; math.Abs(r11.AvgBandwidthLoss-want) > 1e-15 {
		t.Errorf("1 ring 1 cut loss = %v, want 136/528 = %v", r11.AvgBandwidthLoss, want)
	}
	if r11.PartitionProb != 0 {
		t.Errorf("1 ring 1 cut partition = %v, want 0", r11.PartitionProb)
	}
	// One ring, >= 2 cuts: always partitioned (paper: > 90%).
	for c := 1; c < 4; c++ {
		if p := grid[0][c].PartitionProb; p != 1 {
			t.Errorf("1 ring %d cuts partition = %v, want 1", c+1, p)
		}
	}
	// Two rings, four cuts: under 0.5% but not zero (paper: 0.24%).
	if p := grid[1][3].PartitionProb; !(p > 0 && p < 0.005) {
		t.Errorf("2 rings 4 cuts partition = %v, want in (0, 0.5%%)", p)
	}
	// Four rings, one cut: a quarter of the one-ring loss (paper: 6%).
	if got, want := grid[3][0].AvgBandwidthLoss, r11.AvgBandwidthLoss/4; math.Abs(got-want) > 1e-15 {
		t.Errorf("4 rings 1 cut loss = %v, want a quarter of %v", got, r11.AvgBandwidthLoss)
	}
	if RenderFigure6(grid) == "" {
		t.Error("empty render")
	}
}

func TestTable9Renders(t *testing.T) {
	rows, err := Table9(3)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTable9(rows)
	for _, want := range []string{"2-Tier Tree", "Fat-Tree", "BCube", "Jellyfish", "Mesh", "528 (33 w/ WDM)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure10QuartzBetweenHalfAndFull(t *testing.T) {
	rows, err := Figure10(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		q := r.Throughput["quartz"]
		half := r.Throughput["1/2 bisection"]
		quarter := r.Throughput["1/4 bisection"]
		full := r.Throughput["full bisection"]
		if full != 1.0 {
			t.Errorf("%s: full bisection = %v, want 1.0", r.Pattern, full)
		}
		// §5.1's conclusion: Quartz is below full bisection but above
		// the other oversubscribed fabrics.
		if q >= 1.0 {
			t.Errorf("%s: quartz = %v, want < 1", r.Pattern, q)
		}
		if q <= half {
			t.Errorf("%s: quartz %v not above 1/2 bisection %v", r.Pattern, q, half)
		}
		if half <= quarter {
			t.Errorf("%s: 1/2 bisection %v not above 1/4 %v", r.Pattern, half, quarter)
		}
	}
	// Permutation and incast ~0.8-1.0; rack shuffle noticeably lower.
	perm := rows[0].Throughput["quartz"]
	incast := rows[1].Throughput["quartz"]
	shuffle := rows[2].Throughput["quartz"]
	if perm < 0.7 || incast < 0.7 {
		t.Errorf("permutation/incast quartz = %v/%v, want >= 0.7", perm, incast)
	}
	if shuffle >= perm {
		t.Errorf("shuffle %v should underperform permutation %v on quartz", shuffle, perm)
	}
	if RenderFigure10(rows) == "" {
		t.Error("empty render")
	}
}

// vlbFlowsAt builds, a pair at a time, the §3.4 flows at one split:
// directFrac of a cross-rack pair on the direct path and the rest spread
// evenly over a detour through every switch linked to both ends, in
// switch order. A pair within one rack, or with no detour, takes its one
// path whole.
func vlbFlowsAt(g *topology.Graph, pairs [][2]topology.NodeID, directFrac float64) []flowsim.Flow {
	var flows []flowsim.Flow
	for _, p := range pairs {
		src, dst := p[0], p[1]
		sSw, dSw := g.ToRof(src), g.ToRof(dst)
		f := flowsim.Flow{Src: src, Dst: dst}
		if sSw == dSw {
			f.Subflows = []flowsim.Subflow{{Path: []topology.NodeID{src, sSw, dst}, Weight: 1}}
			flows = append(flows, f)
			continue
		}
		var mids []topology.NodeID
		for _, sw := range g.Switches() {
			_, up := g.FindLink(sSw, sw)
			_, down := g.FindLink(sw, dSw)
			if sw != sSw && sw != dSw && up && down {
				mids = append(mids, sw)
			}
		}
		direct := directFrac
		if len(mids) == 0 {
			direct = 1
		}
		if direct > 0 {
			f.Subflows = append(f.Subflows, flowsim.Subflow{Path: []topology.NodeID{src, sSw, dSw, dst}, Weight: direct})
		}
		if direct < 1 {
			for _, mid := range mids {
				f.Subflows = append(f.Subflows, flowsim.Subflow{
					Path: []topology.NodeID{src, sSw, mid, dSw, dst}, Weight: (1 - direct) / float64(len(mids))})
			}
		}
		flows = append(flows, f)
	}
	return flows
}

func TestThroughputOnQuartzMatchesPerSplitFlows(t *testing.T) {
	// throughputOnQuartz compiles the pairs' paths once and fills them
	// at each of the nine fractions; that must give exactly the best
	// total of allocating the flows vlbFlowsAt builds for each fraction,
	// on Figure 10's mesh and patterns and on the oversubscription
	// meshes.
	perSplit := func(g *topology.Graph, pairs [][2]topology.NodeID) float64 {
		best := 0.0
		for frac := 0.0; frac <= 1.0; frac += 0.125 {
			alloc, err := flowsim.Allocate(g, vlbFlowsAt(g, pairs, 1-frac))
			if err != nil {
				t.Fatal(err)
			}
			best = max(best, alloc.Total())
		}
		return best
	}
	check := func(name string, g *topology.Graph, pairs [][2]topology.NodeID) {
		got, err := throughputOnQuartz(g, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if want := perSplit(g, pairs); got != want {
			t.Errorf("%s: throughput %v, per-split flows give %v", name, got, want)
		}
	}
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: fig10Switches, HostsPerSwitch: fig10Hosts})
	if err != nil {
		t.Fatal(err)
	}
	for pattern, pairs := range fig10Pairs(g, rand.New(rand.NewSource(2014))) {
		check(pattern, g, pairs)
	}
	for _, m := range []int{33, 17, 9, 5} {
		g, err := topology.NewFullMesh(topology.MeshConfig{Switches: m, HostsPerSwitch: (64 - (m - 1)) / 4})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("oversub M=%d", m), g, traffic.RandomPermutation(g.Hosts(), rand.New(rand.NewSource(2014))))
	}
}

func TestFigure14TreeSensitiveQuartzFlat(t *testing.T) {
	rows, err := figure14Grid.Local(context.Background(), Params{Seed: 7, RPCs: 400})
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.CrossTraffic != 200*sim.Mbps {
		t.Fatalf("sweep ends at %v, want 200Mbps", last.CrossTraffic)
	}
	// Tree latency rises clearly with cross-traffic; Quartz stays flat.
	if last.TwoTierTree < first.TwoTierTree+0.05 {
		t.Errorf("tree normalized latency flat: %v -> %v", first.TwoTierTree, last.TwoTierTree)
	}
	if last.Quartz > 1.10 {
		t.Errorf("quartz normalized latency rose to %v, want ~1.0", last.Quartz)
	}
	if last.TwoTierTree < last.Quartz+0.05 {
		t.Errorf("tree %v should exceed quartz %v at 200Mbps", last.TwoTierTree, last.Quartz)
	}
	if RenderFigure14(rows) == "" {
		t.Error("empty render")
	}
}

func TestFigure17ScatterOrdering(t *testing.T) {
	rows, err := figure17.panel(context.Background(), ScatterKind, Params{Seed: 5, Tasks: 8})
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	tree1, tree8 := first.Latency["three-tier tree"], last.Latency["three-tier tree"]
	// The tree shows significant latency even with one task (CCS core)
	// and an approximately linear increase with tasks (§7.1).
	if tree1 < 6 || tree1 > 12 {
		t.Errorf("tree at 1 task = %.1fus, want ~8-9us", tree1)
	}
	if tree8 < 1.5*tree1 {
		t.Errorf("tree did not rise with tasks: %.1f -> %.1f us", tree1, tree8)
	}
	// Quartz in edge+core cuts latency by ~half or more vs the tree.
	ec8 := last.Latency["quartz in edge and core"]
	if ec8 > tree8/2 {
		t.Errorf("edge+core %.1fus not at least 2x below tree %.1fus", ec8, tree8)
	}
	// All-ULL designs stay flat: last within 40% of first.
	for _, name := range []string{"quartz in core", "quartz in edge and core", "jellyfish"} {
		if last.Latency[name] > first.Latency[name]*1.4 {
			t.Errorf("%s rose from %.2f to %.2f us; expected flat", name, first.Latency[name], last.Latency[name])
		}
	}
	// Quartz in edge sits between the tree and the all-ULL designs, and
	// rises more slowly than the tree.
	edge1, edge8 := first.Latency["quartz in edge"], last.Latency["quartz in edge"]
	if edge1 >= tree1 {
		t.Errorf("edge at 1 task %.1f not below tree %.1f", edge1, tree1)
	}
	if edge8-edge1 >= tree8-tree1 {
		t.Errorf("edge slope (%.1f) not below tree slope (%.1f)", edge8-edge1, tree8-tree1)
	}
	if RenderFigure17("Figure 17(a)", Figure17Architectures, rows) == "" {
		t.Error("empty render")
	}
}

func TestFigure17GatherSimilarToScatter(t *testing.T) {
	rows, err := figure17.panel(context.Background(), GatherKind, Params{Seed: 5, Tasks: 4})
	if err != nil {
		t.Fatal(err)
	}
	tree := rows[len(rows)-1].Latency["three-tier tree"]
	quartz := rows[len(rows)-1].Latency["quartz in edge and core"]
	if quartz >= tree {
		t.Errorf("gather: edge+core %.1f not below tree %.1f", quartz, tree)
	}
}

func TestFigure17ScatterGatherJump(t *testing.T) {
	rows, err := figure17.panel(context.Background(), ScatterGatherKind, Params{Seed: 5, Tasks: 4})
	if err != nil {
		t.Fatal(err)
	}
	// "a substantial jump in latency going from three to four tasks...
	// due to link saturation from an oversubscribed link" (§7.1).
	tree3 := rows[2].Latency["three-tier tree"]
	tree4 := rows[3].Latency["three-tier tree"]
	if tree4 < 3*tree3 {
		t.Errorf("no saturation jump: tree %.1f -> %.1f us from 3 to 4 tasks", tree3, tree4)
	}
	// Quartz in edge+core remains low throughout.
	if ec := rows[3].Latency["quartz in edge and core"]; ec > 20 {
		t.Errorf("edge+core at 4 scatter/gather tasks = %.1fus, want low", ec)
	}
}

func TestFigure18LocalityClaims(t *testing.T) {
	rows, err := figure18.panel(context.Background(), ScatterKind, Params{Seed: 5, Tasks: 6})
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	// Quartz designs keep the local task's traffic on cheap paths:
	// clearly below the tree at every point.
	for _, r := range rows {
		tree := r.Latency["three-tier tree"]
		for _, name := range []string{"quartz in jellyfish", "quartz in edge and core"} {
			if r.Latency[name] >= tree {
				t.Errorf("tasks=%d: %s %.2f not below tree %.2f", r.Tasks, name, r.Latency[name], tree)
			}
		}
	}
	// The tree's local task degrades with cross-traffic; the quartz
	// designs stay flat (within 35%).
	if last.Latency["three-tier tree"] < first.Latency["three-tier tree"]*1.2 {
		t.Errorf("tree local task did not degrade: %.2f -> %.2f",
			first.Latency["three-tier tree"], last.Latency["three-tier tree"])
	}
	for _, name := range []string{"quartz in jellyfish", "quartz in edge and core"} {
		if last.Latency[name] > first.Latency[name]*1.35 {
			t.Errorf("%s local task degraded: %.2f -> %.2f", name, first.Latency[name], last.Latency[name])
		}
	}
}

func TestFigure20Claims(t *testing.T) {
	rows, err := figure20Grid.Local(context.Background(), Params{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for i, r := range rows {
		gbps := int64(r.Aggregate / sim.Gbps)
		// The non-blocking switch is unaffected by load but pays its
		// store-and-forward latency.
		if r.NonBlocking < 6 || r.NonBlocking > 12 {
			t.Errorf("%dG: non-blocking = %.1fus, want ~8us", gbps, r.NonBlocking)
		}
		// Below saturation, both Quartz modes beat the core switch
		// significantly (§7.2).
		if gbps <= 30 {
			if r.QuartzECMP > r.NonBlocking/2 {
				t.Errorf("%dG: quartz ECMP %.1f not well below core %.1f", gbps, r.QuartzECMP, r.NonBlocking)
			}
			if r.ECMPSaturated {
				t.Errorf("%dG: ECMP saturated too early", gbps)
			}
		}
		// VLB never saturates in the sweep and stays low.
		if r.QuartzVLB > r.NonBlocking {
			t.Errorf("%dG: quartz VLB %.1f above core switch %.1f", gbps, r.QuartzVLB, r.NonBlocking)
		}
		_ = i
	}
	// ECMP saturates at or past the 40 Gb/s direct-link rate.
	if !rows[4].ECMPSaturated && rows[4].QuartzECMP < 50 {
		t.Errorf("50G: ECMP should be saturated or far above baseline (got %.1fus)", rows[4].QuartzECMP)
	}
	if RenderFigure20(rows) == "" {
		t.Error("empty render")
	}
}

func TestTable8Claims(t *testing.T) {
	rows, err := table8Grid.Local(context.Background(), Params{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		// Quartz reduces latency in every scenario.
		if r.LatencyReduction <= 0.05 {
			t.Errorf("%s/%s: reduction %.0f%%, want positive", r.Size, r.Utilization, 100*r.LatencyReduction)
		}
		// The cost premium stays bounded (paper: at most +17%).
		premium := r.QuartzCostPerServer/r.BaselineCostPerServer - 1
		if premium > 0.25 {
			t.Errorf("%s/%s: cost premium %.0f%%, want <= 25%%", r.Size, r.Utilization, 100*premium)
		}
	}
	// Large/Low (Quartz in core) costs about the same as the tree.
	largeLow := rows[4]
	if p := largeLow.QuartzCostPerServer/largeLow.BaselineCostPerServer - 1; p < -0.05 || p > 0.05 {
		t.Errorf("large/low premium = %.1f%%, want ~0", 100*p)
	}
	// Large/High gives the biggest reduction (paper: >74%).
	if rows[5].LatencyReduction < 0.6 {
		t.Errorf("large/high reduction = %.0f%%, want > 60%%", 100*rows[5].LatencyReduction)
	}
	if RenderTable8(rows) == "" {
		t.Error("empty render")
	}
}

func TestTaskKindString(t *testing.T) {
	if ScatterKind.String() != "scatter" || GatherKind.String() != "gather" ||
		ScatterGatherKind.String() != "scatter/gather" {
		t.Error("TaskKind strings wrong")
	}
	if TaskKind(9).String() != "TaskKind(9)" {
		t.Error("unknown TaskKind string wrong")
	}
}

// ownFabric builds fig20's two fabrics and the §6 prototype's two
// wirings and nothing else: Shared.Arch sends it every name that is not
// one of core.Designs.
func TestBuildArchUnknown(t *testing.T) {
	for _, name := range []string{fig20Switch, fig20Quartz, prototypeTree, prototypeMesh} {
		if a, err := ownFabric(name); err != nil || a.Name != name {
			t.Errorf("%s: built %v, %v", name, a, err)
		}
	}
	for _, name := range []string{"nonsense", "quartz in edge", ""} {
		if _, err := ownFabric(name); err == nil {
			t.Errorf("ownFabric built %q", name)
		}
	}
}

// panel runs only the figure's panel for kind.
func (f taskFigure) panel(ctx context.Context, kind TaskKind, p Params) ([]Figure17Row, error) {
	f.panels = f.panels[kind : kind+1]
	panels, err := f.grid().Local(ctx, p)
	if err != nil {
		return nil, err
	}
	return panels[0], nil
}
