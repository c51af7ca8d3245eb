package quartz

import (
	"go/ast"
	"path/filepath"
	"slices"
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

// A packet run is built one way: experiments.Shared.Build
// (internal/experiments/fabric.go) makes or borrows the network,
// attaches the harness, the probes and the faults, and every packet
// experiment and the scenario runner call it. The M/D/1 bottleneck of
// validation.go keeps a network of its own, with its own injector and
// delivery sum: the benchmark parses md1_err_pct from its text. bench/
// is the benchmark's frozen code and is not looked at.
func TestOnePacketRunBuilder(t *testing.T) {
	builder := filepath.Join("internal", "experiments", "fabric.go")
	want := map[string][]string{
		"netsim.New":         {builder, filepath.Join("internal", "experiments", "validation.go")},
		"traffic.NewHarness": {builder},
		".SetProbe":          {builder},
		".AttachFaults":      {builder},
	}
	got := map[string][]string{}
	for path, f := range parseGo(t, "*.go", "cmd/*/*.go", "internal/*/*.go", "examples/*/*.go") {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := "." + sel.Sel.Name
			if x, ok := sel.X.(*ast.Ident); ok && (x.Name == "netsim" || x.Name == "traffic") {
				name = x.Name + name
			}
			if _, tracked := want[name]; tracked && !slices.Contains(got[name], path) {
				got[name] = append(got[name], path)
			}
			return true
		})
	}
	for name, files := range want {
		called := got[name]
		slices.Sort(called)
		if !slices.Equal(called, files) {
			t.Errorf("%s( is called in %v, want only %v", name, called, files)
		}
	}
}
