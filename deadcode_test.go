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

// TestNoDeadExportedFunc fails on exported package-level funcs under
// internal/ that nothing in the tree references: an internal package can
// only be imported from inside the module, so such a func is dead.
func TestNoDeadExportedFunc(t *testing.T) {
	dead, err := deadExported(".", "procmig")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("unused: %s", d)
	}
}

// TestDeadExportedGuardCatchesUnusedFunc runs the exported-func guard over
// the fixture's internal package: one func nothing calls and one only it
// calls itself are flagged; a func its own package, an importer or an
// external test calls, a method, and the Test/Benchmark/Fuzz/Example
// funcs are not.
func TestDeadExportedGuardCatchesUnusedFunc(t *testing.T) {
	dead, err := deadExported(filepath.Join("testdata", "deadcode"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range dead {
		names = append(names, d[strings.LastIndex(d, " ")+1:])
	}
	sort.Strings(names)
	want := []string{"Recursive", "Unused"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flagged %q, want %q", dead, want)
	}
}

// TestNoDeadExportedMethod fails on exported methods under internal/
// whose name is never selected (x.Name) and never named in an interface
// anywhere in the tree, tests and nested modules included: nothing can
// call such a method, directly or through an interface.
func TestNoDeadExportedMethod(t *testing.T) {
	dead, err := deadMethods(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("unused: %s", d)
	}
}

// TestDeadMethodGuardCatchesUnusedMethod runs the method guard over the
// fixture: of its internal package's three exported methods, only the
// one nothing selects and no interface names is flagged.
func TestDeadMethodGuardCatchesUnusedMethod(t *testing.T) {
	dead, err := deadMethods(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range dead {
		names = append(names, d[strings.LastIndex(d, " ")+1:])
	}
	if want := []string{"T.Method"}; !reflect.DeepEqual(names, want) {
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

// deadExported reports, sorted, "file:line name" for every exported
// package-level func in a package under root/internal (import path module
// at root) that nothing under root references. A reference is the name
// used unqualified in a file of the func's own directory, other than in
// the func itself, or selected off an import of its package from any file
// under root — nested modules included, since a module's subdirectories
// may import its internal packages. Methods and Test, Benchmark, Fuzz and
// Example funcs are not checked.
func deadExported(root, module string) ([]string, error) {
	type fn struct {
		key string // import path + "." + name
		pos token.Position
	}
	var funcs []fn
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		imports := map[string]string{} // local name → import path
		for _, is := range f.Imports {
			ip := strings.Trim(is.Path.Value, `"`)
			name := ip[strings.LastIndex(ip, "/")+1:]
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = ip
		}
		for _, decl := range f.Decls {
			own := ""
			var nodes []ast.Node
			if fd, ok := decl.(*ast.FuncDecl); ok {
				nodes = []ast.Node{fd.Type}
				if fd.Body != nil {
					nodes = append(nodes, fd.Body)
				}
				if fd.Recv == nil {
					own = fd.Name.Name
					if internalPkg(rel) && ast.IsExported(own) && !testingFunc(own) {
						funcs = append(funcs, fn{pkg + "." + own, fset.Position(fd.Name.Pos())})
					}
				}
			} else {
				nodes = []ast.Node{decl}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != "" {
						refs[imports[x.Name]+"."+n.Sel.Name] = true
						return false
					}
					ast.Inspect(n.X, visit) // n.Sel is a field or method
					return false
				case *ast.Ident:
					if n.Name != own {
						refs[pkg+"."+n.Name] = true
					}
				}
				return true
			}
			for _, n := range nodes {
				ast.Inspect(n, visit)
			}
		}
		return nil
	})
	var dead []string
	for _, f := range funcs {
		if !refs[f.key] {
			dead = append(dead, fmt.Sprintf("%s:%d %s", filepath.ToSlash(f.pos.Filename), f.pos.Line, f.key[strings.LastIndex(f.key, ".")+1:]))
		}
	}
	sort.Strings(dead)
	return dead, err
}

// internalPkg reports whether a directory, relative to the module root,
// holds an internal package.
func internalPkg(rel string) bool {
	rel = filepath.ToSlash(rel)
	return rel == "internal" || strings.HasPrefix(rel, "internal/")
}

// testingFunc reports whether name is one the testing package calls.
func testingFunc(name string) bool {
	for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// deadMethods reports, sorted, "file:line Recv.Name" for every exported
// method declared in a package under root/internal whose name no file
// under root selects or names as an interface method. It is name-based:
// any x.Name anywhere keeps every method called Name alive.
func deadMethods(root string) ([]string, error) {
	type method struct {
		name string // Recv.Name
		pos  token.Position
	}
	var methods []method
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && ast.IsExported(fd.Name.Name) && internalPkg(rel) {
				methods = append(methods, method{recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name, fset.Position(fd.Name.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				used[n.Sel.Name] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						used[id.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	var dead []string
	for _, m := range methods {
		if !used[m.name[strings.LastIndex(m.name, ".")+1:]] {
			dead = append(dead, fmt.Sprintf("%s:%d %s", filepath.ToSlash(m.pos.Filename), m.pos.Line, m.name))
		}
	}
	sort.Strings(dead)
	return dead, err
}

// recvName is the type name of a method receiver, without pointer or
// type parameters.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
