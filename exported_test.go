package gem5art_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// keptExported lists exported names that stay without a reader outside
// their own package's tests, each with its reason. Keys are
// "<import path>.<name>" for package-level names and
// "<import path>.<Recv>.<Name>" for methods.
var keptExported = map[string]string{
	"gem5art/internal/core/run.CreateSERun": "the paper's §IV-C createSERun API, named in DESIGN.md",
	"gem5art/internal/core/launch.Experiment.RecordScript": "DESIGN.md's launch-script archiving: the paper's launch script, " +
		"with the database, communicates an experiment's inputs",
	"gem5art/internal/gitstore.Repo.Checkout": "the checkout of a recorded (URL, revision) that DESIGN.md's and PAPER.md's " +
		"git-repository substitution provides; revisions may be short hashes, as in the paper's Figure 3",
	"gem5art/internal/sim/cpu.System.RestoreCheckpoint": "DESIGN.md's checkpoint extension: gem5's restore of a " +
		"checkpoint into a system of another CPU model",
}

// stdlibMethods are method names the standard library calls through an
// interface (error, fmt.Stringer, json.Marshaler, http.Handler, io,
// net.Conn, sort and heap, context, flag.Value, …). A method with one of
// these names has a reader no selector in this repository shows.
var stdlibMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"String": true, "GoString": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"ServeHTTP": true, "Header": true, "WriteHeader": true, "Flush": true, "Hijack": true,
	"Read": true, "Write": true, "Close": true, "Seek": true, "ReadAt": true, "WriteAt": true,
	"ReadFrom": true, "WriteTo": true, "WriteString": true, "ReadByte": true, "WriteByte": true,
	"Stat": true, "Name": true, "Size": true, "Mode": true, "ModTime": true, "IsDir": true,
	"Sys": true, "Type": true, "Info": true, "ReadDir": true, "Open": true,
	"Accept": true, "Addr": true, "LocalAddr": true, "RemoteAddr": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"Timeout": true, "Temporary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Deadline": true, "Done": true, "Err": true, "Value": true,
	"Lock": true, "Unlock": true, "Set": true, "Get": true,
}

// TestEveryExportedNameHasAReader fails when an exported name has no
// reader outside its own package's tests, unless keptExported says why
// it stays. It covers two kinds of name:
//
//   - an exported package-level func, type, const or var declared in
//     non-test code of either module (this one and benchmark/), read
//     if referenced from non-test code or from another package's test
//     files: as a bare identifier within the declaring package, or as a
//     selector on the declaring package's import name anywhere else;
//   - an exported method, or interface method, declared in non-test
//     code under internal/, cmd/ or examples/, read if a selector .Name
//     appears in non-test code of either module or in another package's
//     test files, or if the standard library calls it (stdlibMethods).
//
// An external test package (foo_test) is the declaring package's own
// test code. Names resolve by syntax only, so a method read through a
// common name counts as read: the check can miss dead code, never flag
// live code.
func TestEveryExportedNameHasAReader(t *testing.T) {
	dead, read, err := unreadExported(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s has no reader outside its own package's tests", d)
	}
	for name := range keptExported {
		if read[name] {
			t.Errorf("keptExported lists %s, which now has a reader", name)
		}
	}
}

// TestReaderCheckFlagsUnreadMethods runs the reader check over small
// trees, to show which methods it flags.
func TestReaderCheckFlagsUnreadMethods(t *testing.T) {
	const lib = "package lib\n\ntype T struct{}\n\n"
	const use = "package use\n\nimport \"gem5art/internal/lib\"\n\nvar _ = lib.T{}\n"
	for _, tc := range []struct {
		name  string
		files map[string]string
		dead  []string
	}{
		{
			name: "unread method",
			files: map[string]string{
				"internal/lib/lib.go": lib + "func (T) Unread() {}\n",
				"internal/use/use.go": use,
			},
			dead: []string{"internal/lib/lib.go:5:10: gem5art/internal/lib.T.Unread"},
		},
		{
			name: "Error is exempt",
			files: map[string]string{
				"internal/lib/lib.go": lib + "func (T) Error() string { return \"\" }\n",
				"internal/use/use.go": use,
			},
		},
		{
			name: "read by another package's test",
			files: map[string]string{
				"internal/lib/lib.go":      lib + "func (T) Probe() {}\n",
				"internal/use/use.go":      use,
				"internal/use/use_test.go": "package use\n\nimport \"gem5art/internal/lib\"\n\nfunc f() { lib.T{}.Probe() }\n",
				"internal/lib/lib_test.go": "package lib\n\nfunc g() { T{}.Probe() }\n",
			},
		},
		{
			name: "read only by its own package's tests",
			files: map[string]string{
				"internal/lib/lib.go":      lib + "func (T) Probe() {}\n",
				"internal/use/use.go":      use,
				"internal/lib/lib_test.go": "package lib_test\n\nimport \"gem5art/internal/lib\"\n\nfunc g() { lib.T{}.Probe() }\n",
			},
			dead: []string{"internal/lib/lib.go:5:10: gem5art/internal/lib.T.Probe"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := fstest.MapFS{}
			for name, src := range tc.files {
				fsys[name] = &fstest.MapFile{Data: []byte(src)}
			}
			dead, _, err := unreadExported(fsys)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dead, tc.dead) {
				t.Errorf("dead = %q, want %q", dead, tc.dead)
			}
		})
	}
}

// srcFile is one parsed Go file of the tree.
type srcFile struct {
	dir  string // import path of the directory
	path string // slash path from the tree's root
	test bool
	ast  *ast.File
}

// unreadExported parses every Go file under fsys, whose root is this
// module's root, and returns the exported names and methods that have
// no reader ("<position>: <key>", sorted), and the keys of the names
// and methods that do.
func unreadExported(fsys fs.FS) (dead []string, read map[string]bool, err error) {
	fset := token.NewFileSet()
	var files []srcFile
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := "gem5art"
		if rel := path.Dir(p); rel != "." {
			dir += "/" + rel
		}
		files = append(files, srcFile{dir: dir, path: p, test: strings.HasSuffix(p, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	declared := map[string]token.Position{} // key → declaration
	type method struct{ dir, name string }
	methods := map[string]method{} // method key → declaring dir and name
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
		if !methodScope(f.path) {
			continue
		}
		for recv, ids := range methodDecls(f.ast) {
			for _, id := range ids {
				if id.IsExported() {
					key := f.dir + "." + recv + "." + id.Name
					declared[key] = fset.Position(id.Pos())
					methods[key] = method{f.dir, id.Name}
				}
			}
		}
	}

	read = map[string]bool{}
	selected := map[string]bool{}           // .Name selected in non-test code
	selectedInTest := map[string][]string{} // .Name → dirs of test files selecting it
	for _, f := range files {
		imports := map[string]string{} // local name → import path
		for _, spec := range f.ast.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		// An external test package (foo_test) is the declaring
		// package's own test code, not another package.
		own := !f.test && !strings.HasSuffix(f.ast.Name.Name, "_test")
		refs(f.ast, func(id *ast.Ident) {
			if own {
				read[f.dir+"."+id.Name] = true
			}
		}, func(pkg, name string) {
			p, ok := imports[pkg]
			if ok && (!f.test || p != f.dir) {
				read[p+"."+name] = true
			}
		}, func(name string) {
			if f.test {
				selectedInTest[name] = append(selectedInTest[name], f.dir)
			} else {
				selected[name] = true
			}
		})
	}
	for key, m := range methods {
		read[key] = selected[m.name] || stdlibMethods[m.name] ||
			slices.ContainsFunc(selectedInTest[m.name], func(dir string) bool { return dir != m.dir })
	}

	for key, pos := range declared {
		if !read[key] && keptExported[key] == "" {
			dead = append(dead, pos.String()+": "+key)
		}
	}
	sort.Strings(dead)
	return dead, read, nil
}

// methodScope reports whether the check covers the methods declared in
// the file at slash path p. benchmark/ is out of scope: it declares no
// exported methods, and its selectors still count as readers.
func methodScope(p string) bool {
	for _, root := range []string{"internal/", "cmd/", "examples/"} {
		if strings.HasPrefix(p, root) {
			return true
		}
	}
	return false
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

// methodDecls returns the methods f declares, by receiver type name:
// those of its func declarations and those of its package-level
// interface types.
func methodDecls(f *ast.File) map[string][]*ast.Ident {
	byRecv := map[string][]*ast.Ident{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				continue
			}
			typ := d.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch x := typ.(type) {
			case *ast.IndexExpr:
				typ = x.X
			case *ast.IndexListExpr:
				typ = x.X
			}
			recv := typ.(*ast.Ident).Name
			byRecv[recv] = append(byRecv[recv], d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				s, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				iface, ok := s.Type.(*ast.InterfaceType)
				if !ok {
					continue
				}
				for _, m := range iface.Methods.List {
					if _, ok := m.Type.(*ast.FuncType); ok {
						byRecv[s.Name.Name] = append(byRecv[s.Name.Name], m.Names...)
					}
				}
			}
		}
	}
	return byRecv
}

// refs walks f and reports every identifier that may name a package-level
// declaration of f's own package to bare, every pkg.Name selector to
// qualified, and the name of every selector to selected. Declared names,
// method receivers and the field or method half of a selector are not
// bare references.
func refs(f *ast.File, bare func(*ast.Ident), qualified func(pkg, name string), selected func(name string)) {
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
			selected(n.Sel.Name)
			skip[n.Sel] = true
		case *ast.Ident:
			if !skip[n] {
				bare(n)
			}
		}
		return true
	})
}
