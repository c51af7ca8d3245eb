package quartz

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
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

// untestedOnPurpose names the declarations kept without a non-test
// caller, one reason each (DESIGN.md §3, second decision).
var untestedOnPurpose = map[string]string{
	"routing.PacketMeta.Src": "bench/probes.go sets it and nothing reads it; it goes with that line (ROADMAP 5(c))",
}

// Production code is what production reaches: every func, method and
// type of the module's non-test packages, exported or not, is used by
// some non-test file outside its own declaration, and every exported
// struct field without a json tag is read by one, or is a test's oracle
// kept on purpose. bench/, examples/ and this package are callers but are not
// checked: the façade's exports are for users outside the module, and
// TestEveryExportIsUsedByAnExample guards them.
func TestEveryDeclarationHasACaller(t *testing.T) {
	dead, err := deadCode(".", ".", "bench", "examples")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, d := range dead {
		found[d.name] = true
		if _, ok := untestedOnPurpose[d.name]; !ok {
			t.Errorf("%s: %s has no caller outside the tests: delete it, move it into a test file, or reach it from a front end", d.pos, d.name)
		}
	}
	for name := range untestedOnPurpose {
		if !found[name] {
			t.Errorf("untestedOnPurpose names %s, which is not declared or has a caller now: drop it", name)
		}
	}
}

// The guard's analysis on a module built for it: exactly the dead
// declarations are reported — a field that is only written is dead —
// and none that an interface or a json tag keeps alive.
func TestDeadCodeFindsExactlyTheDead(t *testing.T) {
	root := t.TempDir()
	for name, body := range map[string]string{
		"go.mod": "module example.com/dead\n\ngo 1.22\n",
		"main.go": `package main

import (
	"fmt"

	"example.com/dead/shape"
)

func main() {
	sq := shape.Square{Side: 2, Made: 1}
	sq.Made++
	(sq.Made) = 3
	fmt.Println(shape.Total([]shape.Shape{sq}), sq)
}
`,
		"shape/shape.go": `package shape

type Shape interface{ Area() float64 }

type Square struct {
	Side  float64
	Label string ` + "`json:\"label\"`" + `
	Color string
	Made  int
}

func (s Square) Area() float64      { return s.Side * s.Side }
func (s Square) String() string     { return "square" }
func (s Square) Perimeter() float64 { return 4 * s.Side }

func Total(shapes []Shape) (sum float64) {
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

func half(x float64) float64 { return x / 2 }
`,
		"shape/shape_test.go": `package shape

import "testing"

func TestColor(t *testing.T) {
	if (Square{Color: "red"}).Color != "red" {
		t.Fatal("no colour")
	}
}
`,
	} {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := deadCode(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	want := []string{"shape.Square.Color", "shape.Square.Made", "shape.Square.Perimeter", "shape.half"}
	if !slices.Equal(got, want) {
		t.Errorf("dead code %q, want %q", got, want)
	}
}

// deadCode type-checks every non-test package of the module at root and
// returns, sorted by name, the declarations the guard above requires a
// use of and no non-test file uses (reads, for a field), named
// pkg.Func, pkg.Type, pkg.Type.Method or pkg.Type.Field after the last
// element of the package's import path. A method counts as used when its type
// implements an interface, naming that method, which the module declares
// or names, or which a package it imports exports (fmt.Stringer, error,
// json.Marshaler): whoever holds the interface may call it. Packages
// under the callersOnly directories are read as callers, not reported on.
func deadCode(root string, callersOnly ...string) ([]finding, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	s := &typeScan{
		root:  root,
		fset:  token.NewFileSet(),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		pkgs:  map[string]*types.Package{},
		files: map[*types.Package][]*ast.File{},
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			s.module = strings.Trim(strings.TrimSpace(m), `"`)
		}
	}
	// The source importer reads build.Default. With cgo off it takes the
	// pure-Go files of net and os/user, which need no C toolchain.
	build.Default.CgoEnabled = false
	s.std = importer.ForCompiler(s.fset, "source", nil)
	checked := map[*types.Package]bool{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		pkg, err := s.load(path.Join(s.module, filepath.ToSlash(rel)), p)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		checked[pkg] = !slices.ContainsFunc(callersOnly, func(dir string) bool {
			return rel == dir || strings.HasPrefix(rel, dir+string(filepath.Separator))
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	type span struct{ from, to token.Pos }
	names := map[types.Object]string{}
	own := map[types.Object][]span{} // a declaration, and a type's method receivers
	recvOf := map[*types.Func]*types.Named{}
	declare := func(obj types.Object, name string, n ast.Node) {
		names[obj] = name
		own[obj] = append(own[obj], span{n.Pos(), n.End()})
	}
	for pkg, check := range checked {
		if !check {
			continue
		}
		prefix := path.Base(pkg.Path()) + "."
		for _, f := range s.files[pkg] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := s.info.Defs[d.Name].(*types.Func)
					recv := fn.Type().(*types.Signature).Recv()
					switch {
					case recv != nil:
						recvOf[fn] = receiverType(recv.Type())
						tn := recvOf[fn].Obj()
						own[tn] = append(own[tn], span{d.Recv.Pos(), d.Recv.End()})
						declare(fn, prefix+tn.Name()+"."+fn.Name(), d)
					case fn.Name() != "main" && fn.Name() != "init":
						declare(fn, prefix+fn.Name(), d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						declare(s.info.Defs[ts.Name], prefix+ts.Name.Name, ts)
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							if field.Tag != nil {
								tag, _ := strconv.Unquote(field.Tag.Value)
								if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
									continue
								}
							}
							for _, id := range field.Names {
								if id.IsExported() {
									declare(s.info.Defs[id], prefix+ts.Name.Name+"."+id.Name, field)
								}
							}
						}
					}
				}
			}
		}
	}

	// A field is used where it is read. A composite literal's key, the
	// selector an assignment or an x.F++ stores into, is a write.
	writes := map[*ast.Ident]bool{}
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, files := range s.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := s.info.Uses[id].(*types.Var); ok && v.IsField() {
									writes[id] = true
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						field(e)
					}
				case *ast.IncDecStmt:
					field(n.X)
				}
				return true
			})
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range s.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if writes[id] {
			continue
		}
		if _, ok := names[obj]; ok && !slices.ContainsFunc(own[obj], func(sp span) bool { return sp.from <= id.Pos() && id.Pos() < sp.to }) {
			used[obj] = true
		}
	}

	byMethod := map[string][]*types.Interface{}
	seen := map[types.Type]bool{}
	addInterface := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return // implemented only once instantiated
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() || seen[t] {
			return
		}
		seen[t] = true
		for i := range iface.NumMethods() {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	for _, objs := range []map[*ast.Ident]types.Object{s.info.Defs, s.info.Uses} {
		for _, obj := range objs {
			if tn, ok := obj.(*types.TypeName); ok {
				addInterface(tn.Type())
			}
		}
	}
	for e, tv := range s.info.Types {
		if _, ok := e.(*ast.InterfaceType); ok {
			addInterface(tv.Type)
		}
	}
	for pkg := range checked {
		for _, imp := range pkg.Imports() {
			for _, n := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(n).(*types.TypeName); ok && tn.Exported() {
					addInterface(tn.Type())
				}
			}
		}
	}
	for fn, named := range recvOf {
		if used[fn] || named.TypeParams().Len() > 0 {
			continue
		}
		used[fn] = slices.ContainsFunc(byMethod[fn.Name()], func(iface *types.Interface) bool {
			return types.Implements(types.NewPointer(named), iface)
		})
	}

	var dead []finding
	for obj, name := range names {
		if !used[obj] {
			dead = append(dead, finding{name, s.fset.Position(obj.Pos())})
		}
	}
	slices.SortFunc(dead, func(a, b finding) int { return strings.Compare(a.name, b.name) })
	return dead, nil
}

// finding is a declaration deadCode reports, and where it is.
type finding struct {
	name string
	pos  token.Position
}

// receiverType is the named type a method's receiver type declares it on.
func receiverType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// typeScan type-checks a module's packages from source: its own through
// itself, memoised by import path, and the standard library's through
// the source importer, which needs no compiled export data.
type typeScan struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	info         *types.Info
	pkgs         map[string]*types.Package
	files        map[*types.Package][]*ast.File
}

func (s *typeScan) Import(p string) (*types.Package, error) {
	if p != s.module && !strings.HasPrefix(p, s.module+"/") {
		return s.std.Import(p)
	}
	return s.load(p, filepath.Join(s.root, strings.TrimPrefix(p, s.module)))
}

// load type-checks the non-test files of the package in dir.
func (s *typeScan) load(p, dir string) (*types.Package, error) {
	if pkg, ok := s.pkgs[p]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, len(bp.GoFiles))
	for i, name := range bp.GoFiles {
		if files[i], err = parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0); err != nil {
			return nil, err
		}
	}
	pkg, err := (&types.Config{Importer: s}).Check(p, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[p], s.files[pkg] = pkg, files
	return pkg, nil
}
