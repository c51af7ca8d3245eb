package quartz

import (
	"strconv"
	"strings"
	"testing"
)

// The event engine sits at the bottom of the module: everything else
// builds on it, and it builds on nothing but the standard library.
func TestSimImportsOnlyTheStandardLibrary(t *testing.T) {
	for path, f := range parseGo(t, "internal/sim/*.go") {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, imp := range f.Imports {
			// A standard-library path has no dot in its first element.
			if p, _ := strconv.Unquote(imp.Path.Value); strings.Contains(strings.Split(p, "/")[0], ".") {
				t.Errorf("%s imports %s: internal/sim may import only the standard library", path, p)
			}
		}
	}
}

// The packet simulator knows nothing of execution spans: the scenario
// runner renders a run's flow spans from the flow table it attached.
func TestNetsimDoesNotImportTrace(t *testing.T) {
	for path, f := range parseGo(t, "internal/netsim/*.go") {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "github.com/quartz-dcn/quartz/internal/trace" {
				t.Errorf("%s imports %s: spans are rendered outside internal/netsim", path, p)
			}
		}
	}
}
