package quartz

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
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

// untestedOnPurpose names the internal exports kept without a non-test
// caller, one reason each (DESIGN.md §3, second decision).
var untestedOnPurpose = map[string]string{
	"wdm.Optimal":          "certifies OptimalChannels in wdm_test.go; ROADMAP 2(b) decides",
	"wdm.ExactBranchBound": "certifies OptimalChannels in wdm_test.go; ROADMAP 2(b) decides",
	"fault.Availability":   "EXPERIMENTS.md reports a result from it; ROADMAP 5(c)/1(d) decide",
	"traffic.WriteTrace":   "the ParseTrace round-trip test needs it",
}

// An internal capability exists only if a front end reaches it or a
// test uses it as the oracle for code a front end reaches: every
// exported top-level func and type under internal/ is named by some
// non-test file of the module outside its own declaration (a type's
// declaration includes its methods' receivers). Methods and struct
// fields are out of scope: which type a selector's operand has needs
// type information, and this check reads syntax only. It over-counts
// rather than under-counts — a local that shadows a top-level name
// reads as a use.
func TestInternalExportsHaveACaller(t *testing.T) {
	const module = "github.com/quartz-dcn/quartz"
	type name struct{ pkg, id string }
	type span struct{ from, to token.Pos }
	fset := token.NewFileSet()
	var files []*ast.File
	pkgOf := map[*ast.File]string{} // import path of the file's package
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, f)
		pkgOf[f] = path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[name]token.Pos{}
	own := map[name][]span{}
	for _, f := range files {
		pkg := pkgOf[f]
		internal := strings.Contains(pkg, "/internal/")
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					n := name{pkg, d.Name.Name}
					own[n] = append(own[n], span{d.Pos(), d.End()})
					if internal && d.Name.IsExported() {
						declared[n] = d.Pos()
					}
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					n := name{pkg, id.Name}
					own[n] = append(own[n], span{d.Recv.Pos(), d.Recv.End()})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						n := name{pkg, ts.Name.Name}
						own[n] = append(own[n], span{ts.Pos(), ts.End()})
						if internal && ts.Name.IsExported() {
							declared[n] = ts.Pos()
						}
					}
				}
			}
		}
	}

	used := map[name]bool{}
	use := func(n name, at token.Pos) {
		for _, s := range own[n] {
			if s.from <= at && at < s.to {
				return
			}
		}
		used[n] = true
	}
	for _, f := range files {
		imports := map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(p)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = p
		}
		skip := map[*ast.Ident]bool{} // selectors' right-hand sides, declared names, field keys
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						use(name{p, n.Sel.Name}, n.Pos())
					}
				}
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					skip[id] = true
				}
			case *ast.Ident:
				if !skip[n] {
					use(name{pkgOf[f], n.Name}, n.Pos())
				}
			}
			return true
		})
	}

	var missing []string
	for n, pos := range declared {
		short := path.Base(n.pkg) + "." + n.id
		_, allowed := untestedOnPurpose[short]
		switch {
		case !used[n] && !allowed:
			missing = append(missing, fmt.Sprintf("%s: %s has no caller outside the tests: delete it, or reach it from a front end", fset.Position(pos), short))
		case used[n] && allowed:
			t.Errorf("%s has a caller now: drop it from untestedOnPurpose", short)
		}
	}
	for short := range untestedOnPurpose {
		pkg, id, _ := strings.Cut(short, ".")
		if _, ok := declared[name{module + "/internal/" + pkg, id}]; !ok {
			t.Errorf("untestedOnPurpose names %s, which internal/%s does not declare", short, pkg)
		}
	}
	slices.Sort(missing)
	for _, m := range missing {
		t.Error(m)
	}
}
