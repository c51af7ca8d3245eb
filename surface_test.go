package quartz

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The façade is the one importable surface, and it stays small by
// construction: an example may import nothing a user outside this
// module cannot, and the package exports nothing an example does not use.

// parseGo parses the files the globs match, keyed by path.
func parseGo(t *testing.T, globs ...string) map[string]*ast.File {
	t.Helper()
	files := map[string]*ast.File{}
	for _, glob := range globs {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no files match %s (%v)", glob, err)
		}
		for _, p := range paths {
			f, err := parser.ParseFile(token.NewFileSet(), p, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files[p] = f
		}
	}
	return files
}

func TestExamplesImportNoInternalPackage(t *testing.T) {
	for path, f := range parseGo(t, "examples/*/*.go") {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.Contains(p, "/internal/") {
				t.Errorf("%s imports %s: examples show what a user outside this module can write", path, p)
			}
		}
	}
}

func TestEveryExportIsUsedByAnExample(t *testing.T) {
	used := map[string]bool{}
	for _, f := range parseGo(t, "examples/*/*.go", "example_test.go") {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "quartz" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	var exported []string
	for path, f := range parseGo(t, "*.go") {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					exported = append(exported, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						exported = append(exported, spec.Name.Name)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							exported = append(exported, n.Name)
						}
					}
				}
			}
		}
	}
	exported = slices.DeleteFunc(exported, func(name string) bool { return !ast.IsExported(name) })
	if len(exported) == 0 || len(exported) > 25 {
		t.Errorf("package quartz exports %d identifiers, want 1..25", len(exported))
	}
	for _, name := range exported {
		if !used[name] {
			t.Errorf("quartz.%s is used by no example and not by example_test.go: delete it, or show its use", name)
		}
	}
}
