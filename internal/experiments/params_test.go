package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestCacheKeyCanonical(t *testing.T) {
	// Defaults applied: zero params and explicit defaults share a key.
	zero := CacheKey("validate", Params{})
	explicit := CacheKey("validate", DefaultParams())
	if zero != explicit {
		t.Errorf("zero params key %s != default params key %s", zero, explicit)
	}
	// Name is case/space-insensitive.
	if CacheKey(" Validate ", Params{}) != zero {
		t.Errorf("name canonicalization changed the key")
	}
	// Hooks are not identity.
	hooked := Params{Progress: func(int, int) {}}
	if CacheKey("validate", hooked) != zero {
		t.Errorf("Progress hook changed the key")
	}
	// Every result-affecting knob is identity.
	for name, p := range map[string]Params{
		"seed":   {Seed: 1},
		"trials": {Trials: 1},
		"tasks":  {Tasks: 1},
		"rpcs":   {RPCs: 1},
	} {
		if CacheKey("validate", p) == zero {
			t.Errorf("changing %s did not change the key", name)
		}
	}
	// Experiment name is identity.
	if CacheKey("fig6", Params{}) == zero {
		t.Errorf("experiment name did not change the key")
	}
	if len(zero) != 32 || strings.ToLower(zero) != zero {
		t.Errorf("key %q is not a 32-char lowercase hex string", zero)
	}
}

func TestForEachCellProgress(t *testing.T) {
	const n = 37
	var dones []int
	var lastTotal int
	err := forEachCell(context.Background(), n, Params{Progress: func(done, total int) {
		// Serialized by contract: no lock needed here.
		dones = append(dones, done)
		lastTotal = total
	}}, func(context.Context, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != n || lastTotal != n {
		t.Fatalf("got %d callbacks (last total %d), want %d", len(dones), lastTotal, n)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("callback %d reported done=%d, want %d (monotonic)", i, d, i+1)
		}
	}
}

func TestRegistryProgressTicks(t *testing.T) {
	// The validate experiment reports per-cell progress through
	// Params.Progress, ending with done == total.
	e, ok := Find("validate")
	if !ok {
		t.Fatal("validate not registered")
	}
	var last, total int
	p := Params{Trials: 10, Progress: func(d, tot int) { last, total = d, tot }}
	if _, err := e.Run(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if total == 0 || last != total {
		t.Errorf("final progress %d/%d, want done == total > 0", last, total)
	}
}
