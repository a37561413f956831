package gem5art_test

import (
	"errors"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"reflect"
	"runtime"
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
// it stays. Every package of both modules (this one and benchmark/),
// with its tests, is type-checked from source; the standard library
// comes from go/importer. It covers two kinds of name:
//
//   - an exported package-level func, type, const or var declared in
//     non-test code of either module, read if an identifier in non-test
//     code or in another package's test files resolves to it;
//   - an exported method, or interface method, declared in non-test
//     code under internal/, cmd/ or examples/, read if a selector in
//     non-test code of either module or in another package's test files
//     resolves to it, or to an interface method its type implements,
//     or if the standard library calls it (stdlibMethods).
//
// An external test package (foo_test) is the declaring package's own
// test code. Two types' methods of one name are two methods: a
// selector reads the one it resolves to.
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
		{
			name: "one name on two types, one caller",
			files: map[string]string{
				"internal/lib/lib.go": "package lib\n\ntype DB struct{}\n\nfunc (DB) Scrub() {}\n\n" +
					"type Fleet struct{}\n\nfunc (Fleet) Scrub() {}\n",
				"internal/use/use.go": "package use\n\nimport \"gem5art/internal/lib\"\n\n" +
					"func f() { lib.DB{}.Scrub(); _ = lib.Fleet{} }\n",
			},
			dead: []string{"internal/lib/lib.go:9:14: gem5art/internal/lib.Fleet.Scrub"},
		},
		{
			name: "read through an interface it implements",
			files: map[string]string{
				"internal/lib/lib.go": "package lib\n\ntype DB struct{}\n\nfunc (DB) Scrub() int { return 0 }\n\n" +
					"type Fleet struct{}\n\nfunc (Fleet) Scrub() {}\n",
				"internal/use/use.go": "package use\n\nimport \"gem5art/internal/lib\"\n\n" +
					"func f() { var s interface{ Scrub() } = lib.Fleet{}; s.Scrub(); _ = lib.DB{} }\n",
			},
			dead: []string{"internal/lib/lib.go:5:11: gem5art/internal/lib.DB.Scrub"},
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

// srcPkg is one directory's Go files, type-checked on demand.
type srcPkg struct {
	path   string      // import path
	files  []*ast.File // non-test files
	tests  []*ast.File // test files of the package itself
	xtests []*ast.File // test files of its external test package

	plain     *types.Package // the non-test files, as importers see them
	info      *types.Info    // what plain's identifiers resolve to
	withTests *types.Package // with tests too, as the external tests see it
}

// tree type-checks a module tree's packages from source; other imports
// come from std.
type tree struct {
	fset *token.FileSet
	pkgs map[string]*srcPkg // import path → package
	std  types.Importer
	errs []error
}

// Import returns a tree package's non-test files type-checked, or a
// standard-library package.
func (tr *tree) Import(p string) (*types.Package, error) {
	pkg := tr.pkgs[p]
	if pkg == nil {
		return tr.std.Import(p)
	}
	if pkg.plain == nil {
		pkg.plain, pkg.info = tr.check(p, pkg.files, tr)
	}
	return pkg.plain, nil
}

// check type-checks files as package p, resolving imports with imp.
func (tr *tree) check(p string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: imp, Error: func(err error) { tr.errs = append(tr.errs, err) }}
	pkg, _ := conf.Check(p, tr.fset, files, info)
	return pkg, info
}

// dependsOn reports whether tree package p imports want, directly or
// through other tree packages.
func (tr *tree) dependsOn(p, want string) bool {
	pkg := tr.pkgs[p]
	if pkg == nil {
		return false
	}
	for _, f := range pkg.files {
		for _, spec := range f.Imports {
			q, _ := strconv.Unquote(spec.Path.Value)
			if q == want || tr.dependsOn(q, want) {
				return true
			}
		}
	}
	return false
}

// xtestImporter imports for an external test package, as go test
// builds it: the package under test with its own tests, and every tree
// package that imports it re-checked against that build.
type xtestImporter struct {
	*tree
	own  *srcPkg
	pkgs map[string]*types.Package // re-checked against own.withTests
}

func (x *xtestImporter) Import(p string) (*types.Package, error) {
	if p == x.own.path {
		return x.own.withTests, nil
	}
	if x.pkgs[p] != nil {
		return x.pkgs[p], nil
	}
	if !x.tree.dependsOn(p, x.own.path) {
		return x.tree.Import(p)
	}
	x.pkgs[p], _ = x.tree.check(p, x.tree.pkgs[p].files, x)
	return x.pkgs[p], nil
}

// ifaceRead is a selector that resolves to an interface method: it
// reads the method of that name of every type that implements the
// interface.
type ifaceRead struct {
	iface *types.Interface
	name  string
	dir   string // import path of the reading file's package
	test  bool
}

// unreadExported type-checks every Go package under fsys, whose root is
// this module's root, and returns the exported names and methods that
// have no reader ("<position>: <key>", sorted), and the keys of the
// names and methods that do.
func unreadExported(fsys fs.FS) (dead []string, read map[string]bool, err error) {
	tr := &tree{fset: token.NewFileSet(), pkgs: map[string]*srcPkg{}}
	tr.std = importer.ForCompiler(tr.fset, "gc", nil)
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
		if !buildIncludes(src) {
			return nil
		}
		f, err := parser.ParseFile(tr.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := "gem5art"
		if rel := path.Dir(p); rel != "." {
			dir += "/" + rel
		}
		pkg := tr.pkgs[dir]
		if pkg == nil {
			pkg = &srcPkg{path: dir}
			tr.pkgs[dir] = pkg
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			pkg.files = append(pkg.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			pkg.xtests = append(pkg.xtests, f)
		default:
			pkg.tests = append(pkg.tests, f)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Type-check every package three ways — plain, with its tests, and
	// its external tests — and note what each file's identifiers and
	// selectors resolve to.
	read = map[string]bool{}
	var ifaces []ifaceRead
	note := func(info *types.Info, files []*ast.File, dir string, test bool) {
		counts := func(p string) bool { return !test || p != dir }
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := info.Uses[n]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() &&
						tr.pkgs[obj.Pkg().Path()] != nil && counts(obj.Pkg().Path()) {
						read[obj.Pkg().Path()+"."+obj.Name()] = true
					}
				case *ast.SelectorExpr:
					sel := info.Selections[n]
					if sel == nil {
						break
					}
					fn, ok := sel.Obj().(*types.Func)
					if !ok {
						break
					}
					fn = fn.Origin()
					if key, p := methodKey(fn); key != "" && counts(p) {
						read[key] = true
					}
					if iface, ok := recvType(fn).Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, ifaceRead{iface, fn.Name(), dir, test})
					}
				}
				return true
			})
		}
	}
	var dirs []string
	for dir := range tr.pkgs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		pkg := tr.pkgs[dir]
		if len(pkg.files) > 0 {
			_, _ = tr.Import(dir) // a tree package: type errors go to tr.errs
			note(pkg.info, pkg.files, dir, false)
		}
		if len(pkg.tests) > 0 {
			var info *types.Info
			pkg.withTests, info = tr.check(dir, append(slices.Clone(pkg.files), pkg.tests...), tr)
			note(info, pkg.tests, dir, true)
		}
		if len(pkg.xtests) > 0 {
			imp := types.Importer(tr)
			if pkg.withTests != nil {
				imp = &xtestImporter{tree: tr, own: pkg, pkgs: map[string]*types.Package{}}
			}
			_, info := tr.check(dir+"_test", pkg.xtests, imp)
			note(info, pkg.xtests, dir, true)
		}
	}
	if len(tr.errs) > 0 {
		return nil, nil, errors.Join(tr.errs...)
	}

	// What is declared: every exported package-level name, and every
	// exported method of a type declared under methodScope.
	declared := map[string]token.Position{} // key → declaration
	for _, dir := range dirs {
		pkg := tr.pkgs[dir].plain
		if pkg == nil {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				declared[dir+"."+name] = tr.fset.Position(obj.Pos())
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || !methodScope(tr.fset.Position(obj.Pos()).Filename) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			var methods []*types.Func
			for i := 0; i < named.NumMethods(); i++ {
				methods = append(methods, named.Method(i))
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					methods = append(methods, iface.ExplicitMethod(i))
				}
			}
			for _, fn := range methods {
				if !fn.Exported() {
					continue
				}
				key, _ := methodKey(fn)
				declared[key] = tr.fset.Position(fn.Pos())
				if read[key] || stdlibMethods[fn.Name()] {
					read[key] = true
					continue
				}
				if _, isIface := named.Underlying().(*types.Interface); isIface {
					continue
				}
				read[key] = slices.ContainsFunc(ifaces, func(r ifaceRead) bool {
					return r.name == fn.Name() && (!r.test || r.dir != dir) && implements(named, r.iface)
				})
			}
		}
	}

	for key, pos := range declared {
		if !read[key] && keptExported[key] == "" {
			dead = append(dead, pos.String()+": "+key)
		}
	}
	sort.Strings(dead)
	return dead, read, nil
}

// recvType is the type that declares method fn, pointer stripped.
func recvType(fn *types.Func) types.Type {
	t := types.Unalias(fn.Type().(*types.Signature).Recv().Type())
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	return t
}

// methodKey returns "<import path>.<Recv>.<Name>" for a method of a
// named type, and the import path; "" for any other.
func methodKey(fn *types.Func) (key, pkgPath string) {
	named, ok := recvType(fn).(*types.Named)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + fn.Name(), fn.Pkg().Path()
}

// implements reports whether the named type, or a pointer to it,
// implements iface.
func implements(named *types.Named, iface *types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
}

// buildIncludes reports whether a file's //go:build line, if any, holds
// for a plain (non-race) build on this host.
func buildIncludes(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "package ") {
			break
		}
		if expr, err := constraint.Parse(line); err == nil {
			return expr.Eval(func(tag string) bool { return tag == runtime.GOOS || tag == runtime.GOARCH })
		}
	}
	return true
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
