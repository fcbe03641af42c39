package procmig

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestNoDeadCode fails on unexported package-level functions, types, vars
// and consts that nothing in their package references. Test files count
// as references. Nested modules (perfbench) and testdata are skipped.
func TestNoDeadCode(t *testing.T) {
	dead, err := deadCode(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("unused: %s", d)
	}
}

// TestDeadCodeGuardCatchesUnusedHelper runs the guard over a fixture that
// declares one unused helper of each kind next to look-alikes that must
// not be flagged: a field, a method and a local sharing a dead name, a
// recursive call, and a name only a test file uses.
func TestDeadCodeGuardCatchesUnusedHelper(t *testing.T) {
	dead, err := deadCode(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range dead {
		names = append(names, d[strings.LastIndex(d, " ")+1:])
	}
	sort.Strings(names)
	want := []string{"unusedConst", "unusedHelper", "unusedType", "unusedVar"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flagged %q, want %q", dead, want)
	}
}

// deadCode reports, sorted, "file:line name" for every unexported
// package-level declaration under root that no other declaration of its
// package uses. It is name-based with the parser's scope resolution:
// selector names, method and field names, and idents bound to a local
// declaration are not references; an ident the parser left unresolved
// (declared in another file of the package) is.
func deadCode(root string) ([]string, error) {
	var dead []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		found, err := deadInDir(path)
		dead = append(dead, found...)
		return err
	})
	sort.Strings(dead)
	return dead, err
}

func deadInDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{} // package name → files (x and x_test apart)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			return nil, err
		}
		pkgs[f.Name.Name] = append(pkgs[f.Name.Name], f)
	}
	var dead []string
	for _, files := range pkgs {
		dead = append(dead, deadInPackage(fset, files)...)
	}
	return dead, nil
}

func deadInPackage(fset *token.FileSet, files []*ast.File) []string {
	// A unit is one top-level function or spec: the syntax its uses are
	// searched in, and the names it declares.
	type unit struct {
		nodes []ast.Node
		names []*ast.Ident
	}
	var units []unit
	top := map[any]bool{} // the Obj.Decl of every package-level object
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				top[d] = true
				// Not the receiver: a type its own methods name is not used.
				u := unit{nodes: []ast.Node{d.Type}}
				if d.Body != nil {
					u.nodes = append(u.nodes, d.Body)
				}
				if d.Recv == nil {
					u.names = []*ast.Ident{d.Name}
				}
				units = append(units, u)
			case *ast.GenDecl:
				if d.Tok == token.IMPORT {
					continue
				}
				for _, spec := range d.Specs {
					top[spec] = true
					u := unit{nodes: []ast.Node{spec}}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						u.names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						u.names = s.Names
					}
					units = append(units, u)
				}
			}
		}
	}

	used := map[string]bool{}
	for _, u := range units {
		// A unit's uses of its own names (recursion, self-reference, the
		// declaring idents themselves) do not count.
		own := map[string]bool{}
		for _, id := range u.names {
			own[id.Name] = true
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				ast.Inspect(n.X, visit) // n.Sel is a field, method or import member
				return false
			case *ast.Ident:
				if !own[n.Name] && (n.Obj == nil || top[n.Obj.Decl]) {
					used[n.Name] = true
				}
			}
			return true
		}
		for _, n := range u.nodes {
			ast.Inspect(n, visit)
		}
	}

	var dead []string
	for _, u := range units {
		for _, id := range u.names {
			if n := id.Name; n != "_" && n != "init" && n != "main" && !ast.IsExported(n) && !used[n] {
				pos := fset.Position(id.Pos())
				dead = append(dead, fmt.Sprintf("%s:%d %s", filepath.ToSlash(pos.Filename), pos.Line, n))
			}
		}
	}
	return dead
}
