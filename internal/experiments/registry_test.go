package experiments

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestRegistryCoversAllEntrypoints parses this package's sources and
// checks every exported Figure*/Table* function is called inside
// registry.go's All(), so new reproductions cannot silently miss
// quartzsim -run all.
func TestRegistryCoversAllEntrypoints(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	called := map[string]bool{}
	registry, ok := pkgs["experiments"].Files["registry.go"]
	if !ok {
		t.Fatal("registry.go not parsed")
	}
	for _, decl := range registry.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "All" {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						called[id.Name] = true
					}
				}
				return true
			})
		}
	}
	if len(called) == 0 {
		t.Fatal("found no calls inside All()")
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		for path, f := range pkg.Files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !fd.Name.IsExported() {
					continue
				}
				name := fd.Name.Name
				if !strings.HasPrefix(name, "Figure") && !strings.HasPrefix(name, "Table") {
					continue
				}
				if !called[name] {
					t.Errorf("exported entrypoint %s (%s) is not called inside All()", name, path)
				}
			}
		}
	}
}

func TestRegistryNamesUniqueAndFindable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.Name == "" || e.Title == "" {
			t.Errorf("entry %+v missing name or title", e)
		}
		if e.Name != strings.ToLower(e.Name) {
			t.Errorf("entry %q: names must be lower-case", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
		if e.Run == nil {
			t.Errorf("entry %q has no Run", e.Name)
		}
		got, ok := Find(strings.ToUpper(e.Name))
		if !ok || got.Name != e.Name {
			t.Errorf("Find(%q) did not return the entry", e.Name)
		}
	}
	if _, ok := Find("no-such-experiment"); ok {
		t.Error("Find returned an entry for an unknown name")
	}
}

// TestRegistryRunsCheapEntries executes the static entries end to end.
func TestRegistryRunsCheapEntries(t *testing.T) {
	for _, name := range []string{"table2", "table16", "fig1"} {
		e, ok := Find(name)
		if !ok {
			t.Fatalf("missing %q", name)
		}
		out, err := e.Run(context.Background(), DefaultParams())
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if out.Text == "" {
			t.Errorf("%s produced no text", name)
		}
	}
}

func TestParamsWithDefaults(t *testing.T) {
	// Params carries a func-typed hook, so compare the knobs directly.
	knobs := func(p Params) [4]int64 {
		return [4]int64{p.Seed, int64(p.Trials), int64(p.Tasks), int64(p.RPCs)}
	}
	p := Params{}.WithDefaults()
	if knobs(p) != knobs(DefaultParams()) {
		t.Errorf("zero params = %+v, want defaults %+v", p, DefaultParams())
	}
	q := Params{Seed: 7, Trials: 1, Tasks: 2, RPCs: 3}.WithDefaults()
	if knobs(q) != [4]int64{7, 1, 2, 3} {
		t.Errorf("explicit params changed: %+v", q)
	}
}
