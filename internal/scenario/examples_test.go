package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/quartz-dcn/quartz/internal/experiments"
)

const examplesDir = "../../examples/scenarios"

// Every shipped example must load, validate, and compile — the same
// bar the CI scenario-smoke step holds them to via quartzsim -dry-run.
func TestExamplesCompile(t *testing.T) {
	entries, err := os.ReadDir(examplesDir)
	if err != nil {
		t.Fatalf("reading %s: %v", examplesDir, err)
	}
	var n int
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		n++
		f, err := Load(filepath.Join(examplesDir, e.Name()))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if _, err := Compile(f); err != nil {
			t.Errorf("%s: compile: %v", e.Name(), err)
		}
	}
	if n < 4 {
		t.Fatalf("only %d example scenarios in %s, want at least 4", n, examplesDir)
	}
}

// The shipped registry-backed examples must hit the same cache entries
// as the equivalent direct submissions — this is the acceptance bar for
// the declarative format: figure6.json coalesces with a plain
// {"experiment":"fig6"} POST, table8.json with
// {"experiment":"table8","params":{...}}.
func TestExamplesRegistryCacheKeyParity(t *testing.T) {
	fig6 := loadExample(t, "figure6.json")
	if got, want := fig6.CacheKey(), experiments.CacheKey("fig6", experiments.DefaultParams()); got != want {
		t.Errorf("figure6.json cache key %s, want registry key %s", got, want)
	}
	t8 := loadExample(t, "table8.json")
	if got, want := t8.CacheKey(), experiments.CacheKey("table8", experiments.Params{Seed: 99, Trials: 250}); got != want {
		t.Errorf("table8.json cache key %s, want registry key %s", got, want)
	}
}

// The sim examples are keyed by document hash. These keys were printed
// by `quartzsim -scenario FILE -dry-run` on the commit before the TOML
// syntax was removed — incast's by incast.toml, which incast.json
// replaces: the conversion, the new workload.trace field and the
// rounding msTime must not move any of them.
func TestExamplesKeepTheirCacheKeys(t *testing.T) {
	for name, want := range map[string]string{
		"fault-cut.json":       "273cc75928f2e7ab8a02e02ca48ae65d",
		"incast.json":          "6f916a3646be2121bb317a6a4d24a04f",
		"jellyfish-sweep.json": "097a85c1cb7f18e4d0916035bfe9d49e",
	} {
		if got := loadExample(t, name).CacheKey(); got != want {
			t.Errorf("%s cache key %s, want %s", name, got, want)
		}
	}
}

func loadExample(t *testing.T, name string) *Compiled {
	t.Helper()
	f, err := Load(filepath.Join(examplesDir, name))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	c, err := Compile(f)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	return c
}
