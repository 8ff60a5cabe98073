// Package exportgate finds dead API: the exported top-level names of a
// package that no non-test code outside it uses. Package tests call
// Dead to gate their exports (TestExportsHaveCallers), so an export
// that loses its last caller is deleted or unexported rather than kept
// alive by its own tests.
package exportgate

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Dead returns, sorted, the exported top-level names declared by the
// non-test files in dir — the package importPath — that no non-test Go
// file under root outside the package names, and that appear in the
// signature, fields or methods of no name that is. Only the Go files
// directly in dir are the package: its subdirectories hold other
// packages and are searched like the rest of root. Directories
// starting with a dot and testdata directories are skipped. keep names
// exports to treat as live regardless (fixtures for other packages'
// tests, or names a document promises); a kept name the package does
// not export is an error, so a keep list cannot outlive its names.
func Dead(dir, importPath, root string, keep ...string) ([]string, error) {
	decls, err := exportedDecls(dir)
	if err != nil {
		return nil, err
	}
	here, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	live := map[string]bool{}
	for _, name := range keep {
		if decls[name] == nil {
			return nil, fmt.Errorf("exportgate: kept name %s is not an exported top-level name of %s", name, importPath)
		}
		live[name] = true
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if (strings.HasPrefix(d.Name(), ".") && path != root) || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if parent, _ := filepath.Abs(filepath.Dir(path)); parent == here {
			return nil
		}
		names, err := selectorsOf(path, importPath)
		for name := range names {
			live[name] = true
		}
		return err
	})
	if err != nil {
		return nil, err
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
	return dead, nil
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
func selectorsOf(path, importPath string) (map[string]bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, err
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
		return names, nil
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
				names[sel.Sel.Name] = true
			}
		}
		return true
	})
	return names, nil
}
