package shard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExportsHaveCallers is the dead-export gate: every exported
// top-level name of this package must be named by non-test code outside
// it — anywhere in the repository, the benchmark module included — or
// appear in the signature, fields or methods of a name that is. An
// export that fails both is dead API: delete it or unexport it. The
// only exceptions are the named test fixtures below.
func TestExportsHaveCallers(t *testing.T) {
	const importPath = "herald/internal/shard"
	// testOnly names exports that exist for other packages' tests.
	testOnly := map[string]string{
		"NewInProcessWorker": "builds process-free pools in serve, sweep and benchmark tests",
	}
	decls, err := exportedDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	here, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for name := range testOnly {
		live[name] = true
	}
	err = filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			abs, _ := filepath.Abs(path)
			if abs == here || (strings.HasPrefix(d.Name(), ".") && d.Name() != "..") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for name := range selectorsOf(t, path, importPath) {
			live[name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Names reachable from a live declaration's types are live too.
	for changed := true; changed; {
		changed = false
		for name := range live {
			for _, n := range decls[name] {
				ast.Inspect(n, func(x ast.Node) bool {
					if id, ok := x.(*ast.Ident); ok && decls[id.Name] != nil && !live[id.Name] {
						live[id.Name] = true
						changed = true
					}
					return true
				})
			}
		}
	}
	var dead []string
	for name := range decls {
		if !live[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("exported names without a non-test caller outside the package: %s", strings.Join(dead, ", "))
	}
}

// exportedDecls maps every exported top-level name declared by the
// non-test files in dir to the syntax its liveness carries along: a
// function's signature, a type's definition plus its exported methods'
// signatures, or a value's type and initializer. Members of a
// parenthesized const block map to the whole block — the block is one
// enumeration and lives or dies together.
func exportedDecls(dir string) (map[string][]ast.Node, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	decls := map[string][]ast.Node{}
	add := func(name string, n ast.Node) {
		if ast.IsExported(name) {
			decls[name] = append(decls[name], n)
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name.Name, d.Type)
					} else if ast.IsExported(d.Name.Name) {
						add(receiverType(d.Recv.List[0].Type), d.Type)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name.Name, s.Type)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if d.Tok == token.CONST && d.Lparen.IsValid() {
									add(id.Name, d)
								} else {
									add(id.Name, s)
								}
							}
						}
					}
				}
			}
		}
	}
	return decls, nil
}

// receiverType names a method receiver's base type.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// selectorsOf returns the names a Go file selects from importPath
// (pkg.Name), or nothing when the file does not import it.
func selectorsOf(t *testing.T, path, importPath string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == importPath {
			local = filepath.Base(importPath)
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	names := map[string]bool{}
	if local == "" {
		return names
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
				names[sel.Sel.Name] = true
			}
		}
		return true
	})
	return names
}
