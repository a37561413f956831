package gem5art_test

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

// keptExported lists exported package-level names that stay without a
// reader outside their own package's tests, each with its reason. Keys
// are "<import path>.<name>".
var keptExported = map[string]string{
	"gem5art/internal/core/run.CreateSERun": "the paper's §IV-C createSERun API, named in DESIGN.md",
}

// TestEveryExportedNameHasAReader fails when an exported package-level
// func, type, const or var declared in non-test code of either module
// (this one and benchmark/) is referenced neither from non-test code nor
// from another package's test files. A name only its own package's
// tests use is dead weight, unless keptExported says why it stays.
// Methods are out of scope. References are resolved syntactically: a
// bare identifier within the declaring package, or a selector on the
// declaring package's import name anywhere else.
func TestEveryExportedNameHasAReader(t *testing.T) {
	type file struct {
		dir  string // import path of the directory
		test bool
		ast  *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := "gem5art"
		if rel := filepath.ToSlash(filepath.Dir(path)); rel != "." {
			dir += "/" + rel
		}
		files = append(files, file{dir: dir, test: strings.HasSuffix(path, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]token.Position{} // "<dir>.<name>" → declaration
	for _, f := range files {
		if f.test {
			continue
		}
		for _, decl := range f.ast.Decls {
			for _, id := range declNames(decl) {
				if id.IsExported() {
					declared[f.dir+"."+id.Name] = fset.Position(id.Pos())
				}
			}
		}
	}

	read := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name → import path
		for _, spec := range f.ast.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = path
		}
		// An external test package (foo_test) is the declaring
		// package's own test code, not another package.
		own := !f.test && !strings.HasSuffix(f.ast.Name.Name, "_test")
		refs(f.ast, func(id *ast.Ident) {
			if own {
				read[f.dir+"."+id.Name] = true
			}
		}, func(pkg, name string) {
			path, ok := imports[pkg]
			if ok && (!f.test || path != f.dir) {
				read[path+"."+name] = true
			}
		})
	}

	var dead []string
	for name, pos := range declared {
		if !read[name] && keptExported[name] == "" {
			dead = append(dead, pos.String()+": "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no reader outside its own package's tests", d)
	}
	for name := range keptExported {
		if read[name] {
			t.Errorf("keptExported lists %s, which now has a reader", name)
		}
	}
}

// declNames returns the names a package-level declaration introduces,
// skipping methods.
func declNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// refs walks f and reports every identifier that may name a package-level
// declaration of f's own package to bare, and every pkg.Name selector to
// qualified. Declared names, method receivers and the field or method
// half of a selector are not references.
func refs(f *ast.File, bare func(*ast.Ident), qualified func(pkg, name string)) {
	skip := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		for _, id := range declNames(decl) {
			skip[id] = true
		}
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
			skip[fd.Name] = true
			ast.Inspect(fd.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					skip[id] = true
				}
				return true
			})
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				qualified(x.Name, n.Sel.Name)
			}
			skip[n.Sel] = true
		case *ast.Ident:
			if !skip[n] {
				bare(n)
			}
		}
		return true
	})
}
