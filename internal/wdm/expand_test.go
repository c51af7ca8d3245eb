package wdm

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	orig := Greedy(10, rand.New(rand.NewSource(3)))
	split, err := SplitAcrossRings(orig, 2, (orig.Channels+1)/2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(split)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.M != split.M || back.Channels != split.Channels || back.Rings != split.Rings {
		t.Errorf("round trip header: %+v vs %+v", back, split)
	}
	if len(back.Assignments) != len(split.Assignments) {
		t.Fatalf("assignments %d vs %d", len(back.Assignments), len(split.Assignments))
	}
	for i := range back.Assignments {
		if back.Assignments[i] != split.Assignments[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
	if err := back.Validate(); err != nil {
		t.Error(err)
	}
	// Bad payloads rejected.
	if err := json.Unmarshal([]byte(`{"ringSize":-1}`), &back); err == nil {
		t.Error("negative ring size accepted")
	}
	if err := json.Unmarshal([]byte(`{bad`), &back); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestExpandPlanMinimalDisruption(t *testing.T) {
	old := Greedy(12, nil)
	plan, stats, err := ExpandPlan(old, 16, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.From != 12 || stats.To != 16 {
		t.Errorf("stats = %+v", stats)
	}
	oldPairs := 12 * 11 / 2
	if stats.Kept+stats.Retuned != oldPairs {
		t.Errorf("kept %d + retuned %d != %d old pairs", stats.Kept, stats.Retuned, oldPairs)
	}
	if stats.Added != 16*15/2-oldPairs {
		t.Errorf("added = %d, want %d", stats.Added, 16*15/2-oldPairs)
	}
	// The point of in-place expansion: a majority of existing channels
	// survive untouched (only splice-crossing arcs retune).
	if stats.Kept <= stats.Retuned {
		t.Errorf("kept %d <= retuned %d; expansion should preserve most channels", stats.Kept, stats.Retuned)
	}
	// Every kept assignment is bit-identical to the old plan's.
	oldByPair := map[[2]int]Assignment{}
	for _, a := range old.Assignments {
		oldByPair[[2]int{a.S, a.T}] = a
	}
	kept := 0
	for _, a := range plan.Assignments {
		if o, ok := oldByPair[[2]int{a.S, a.T}]; ok && o.Channel == a.Channel && o.Dir == a.Dir {
			kept++
		}
	}
	if kept < stats.Kept {
		t.Errorf("only %d assignments actually identical, stats claim %d", kept, stats.Kept)
	}
	if stats.String() == "" {
		t.Error("empty stats string")
	}
}

func TestExpandPlanErrors(t *testing.T) {
	old := Greedy(8, nil)
	if _, _, err := ExpandPlan(old, 8, nil); err == nil {
		t.Error("non-growing expansion accepted")
	}
	split, err := SplitAcrossRings(old, 2, old.Channels)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExpandPlan(split, 10, nil); err == nil {
		t.Error("multi-ring plan accepted")
	}
	bad := &Plan{M: 4, Channels: 1, Rings: 1}
	if _, _, err := ExpandPlan(bad, 6, nil); err == nil {
		t.Error("invalid input plan accepted")
	}
}

// TestExpandPlanProperty: any expansion of any greedy plan validates,
// and channel growth stays near the fresh-plan greedy count.
func TestExpandPlanProperty(t *testing.T) {
	f := func(mm, grow uint8, seed int64) bool {
		m := int(mm%14) + 4
		to := m + int(grow%6) + 1
		rng := rand.New(rand.NewSource(seed))
		old := Greedy(m, rng)
		plan, stats, err := ExpandPlan(old, to, rng)
		if err != nil {
			return false
		}
		if plan.Validate() != nil {
			return false
		}
		// Incremental planning pays a bounded premium over planning the
		// larger ring from scratch.
		fresh := Greedy(to, rng)
		return stats.ChannelsAfter <= fresh.Channels*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
