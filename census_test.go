package sage_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// censusAllowList names the exported identifiers the census may find
// unreferenced, one a line: the identifier, whitespace, and why it stays.
const censusAllowList = "testdata/census_allow.txt"

// TestReachabilityCensus lists every exported package-level func, type and
// method of the root module's non-main packages that nothing references, and
// requires the list to be exactly the allow-list. A reference is a use in a
// non-test file of the root module (commands and examples included) or in any
// file of a nested module (the end-to-end benchmark, tests included), other
// than a use inside the identifier's own declaration: a type named by its own
// methods, a function calling itself. A method that implements a method of
// any interface in sight (the module's, its direct imports', error) counts as
// referenced, because a call through the interface names only the interface.
//
// An unlisted unreferenced identifier fails the test, and so does a listed one
// that is now referenced or gone: the list can only shrink.
func TestReachabilityCensus(t *testing.T) {
	found := census(t)
	allowed := readAllowList(t)
	var unlisted, stale []string
	for _, id := range found {
		if _, ok := allowed[id]; !ok {
			unlisted = append(unlisted, id)
		}
	}
	for id := range allowed {
		if !slices.Contains(found, id) {
			stale = append(stale, id)
		}
	}
	slices.Sort(stale)
	for _, id := range unlisted {
		t.Errorf("%s is exported and nothing references it: delete it, or list it in %s with the reason it stays", id, censusAllowList)
	}
	for _, id := range stale {
		t.Errorf("%s is listed in %s but is referenced or gone: drop the line", id, censusAllowList)
	}
}

// readAllowList returns the allow-list's identifiers with their reasons.
func readAllowList(t *testing.T) map[string]string {
	f, err := os.Open(censusAllowList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Errorf("%s:%d: %s has no reason", censusAllowList, n, id)
		}
		if _, dup := allowed[id]; dup {
			t.Errorf("%s:%d: %s is listed twice", censusAllowList, n, id)
		}
		allowed[id] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}

// censusModule is one Go module in the repository tree.
type censusModule struct {
	path, dir string
	root      bool // the root module, whose exports the census counts
}

// censusLoader type-checks the repository's packages from source. Module
// packages resolve to their directories; everything else is the standard
// library, which the source importer checks without function bodies.
type censusLoader struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	ctxt    build.Context
	modules []censusModule
	info    *types.Info
	pkgs    map[string]*types.Package
	// refFiles are the files whose uses count as references.
	refFiles []*ast.File
	// counted are the packages whose exports the census counts.
	counted []*types.Package
}

func (l *censusLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *censusLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if m, ok := l.innermost(path, func(m censusModule) string { return m.path }, "/"); ok {
		return l.load(m, filepath.Join(m.dir, strings.TrimPrefix(path, m.path)))
	}
	return l.std.ImportFrom(path, dir, mode)
}

// innermost returns the module whose key — its path or its directory — is
// the longest prefix of s at a sep boundary.
func (l *censusLoader) innermost(s string, key func(censusModule) string, sep string) (censusModule, bool) {
	var best censusModule
	found := false
	for _, m := range l.modules {
		k := key(m)
		if (s == k || strings.HasPrefix(s, k+sep)) && (!found || len(k) > len(key(best))) {
			best, found = m, true
		}
	}
	return best, found
}

// load type-checks the package in dir once. A root-module package is checked
// from its non-test files; a nested module's with its in-package tests, and
// its external tests as a package of their own.
func (l *censusLoader) load(m censusModule, dir string) (*types.Package, error) {
	path := m.path + filepath.ToSlash(strings.TrimPrefix(dir, m.dir))
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if !m.root {
		names = append(slices.Clip(names), bp.TestGoFiles...)
	}
	p, err := l.check(path, dir, names)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	if m.root && bp.Name != "main" {
		l.counted = append(l.counted, p)
	}
	if !m.root && len(bp.XTestGoFiles) > 0 {
		if _, err := l.check(path+"_test", dir, bp.XTestGoFiles); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (l *censusLoader) check(path, dir string, names []string) (*types.Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	l.refFiles = append(l.refFiles, files...)
	conf := types.Config{Importer: l}
	return conf.Check(path, l.fset, files, l.info)
}

// census returns the unreferenced exported identifiers, sorted, each as its
// package's path in the module, a dot, and the name (Type.Method for a method).
func census(t *testing.T) []string {
	// The standard library is checked from source; its cgo variants would need
	// a C toolchain run, and its pure-Go ones declare the same API.
	build.Default.CgoEnabled = false
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	l := &censusLoader{
		fset: token.NewFileSet(),
		ctxt: build.Default,
		info: &types.Info{Uses: make(map[*ast.Ident]types.Object), Defs: make(map[*ast.Ident]types.Object), Types: make(map[ast.Expr]types.TypeAndValue)},
		pkgs: make(map[string]*types.Package),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if data, err := os.ReadFile(filepath.Join(path, "go.mod")); err == nil {
			l.modules = append(l.modules, censusModule{path: modulePath(data), dir: path, root: path == root})
		}
		if matches, _ := filepath.Glob(filepath.Join(path, "*.go")); len(matches) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		m, _ := l.innermost(dir, func(m censusModule) string { return m.dir }, string(filepath.Separator))
		if _, err := l.load(m, dir); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				t.Fatalf("%s: %v", dir, err)
			}
		}
	}

	referenced := make(map[types.Object]bool)
	for _, f := range l.refFiles {
		for _, decl := range f.Decls {
			l.markUses(decl, referenced)
		}
	}
	l.markInterfaceMethods(referenced)

	rootModule, _ := l.innermost(root, func(m censusModule) string { return m.dir }, string(filepath.Separator))
	var out []string
	for _, p := range l.counted {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.Path(), rootModule.path), "/")
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			tn, isType := obj.(*types.TypeName)
			_, isFunc := obj.(*types.Func)
			if obj.Exported() && (isType || isFunc) && !referenced[obj] {
				out = append(out, rel+"."+name)
			}
			if !isType || tn.IsAlias() {
				continue // an alias's methods are its target's
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !referenced[m] {
					out = append(out, rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// markUses marks what decl's identifiers refer to, except the objects decl
// itself declares: a function, a method and its receiver's type, a type.
func (l *censusLoader) markUses(decl ast.Decl, referenced map[types.Object]bool) {
	mark := func(node ast.Node, self ...types.Object) {
		ast.Inspect(node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := l.info.Uses[id]
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			if obj != nil && !slices.Contains(self, obj) {
				referenced[obj] = true
			}
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self := []types.Object{l.info.Defs[d.Name]}
		if sig, ok := self[0].Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				self = append(self, named.Origin().Obj())
			}
		}
		mark(d, self...)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok {
				mark(ts, l.info.Defs[ts.Name])
			} else {
				mark(spec)
			}
		}
	}
}

// markInterfaceMethods marks every method through which a module type
// implements an interface in sight: the module's own interfaces, named or
// not, those its packages import directly, and error.
func (l *censusLoader) markInterfaceMethods(referenced map[types.Object]bool) {
	var ifaces []*types.Interface
	addScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	addScope(types.Universe)
	seen := make(map[*types.Package]bool)
	for _, p := range l.pkgs {
		for _, imp := range append(p.Imports(), p) {
			if !seen[imp] {
				seen[imp] = true
				addScope(imp.Scope())
			}
		}
	}
	for _, tv := range l.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range l.pkgs {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
						referenced[sel.Obj().(*types.Func).Origin()] = true
					}
				}
			}
		}
	}
}

// modulePath returns the module path a go.mod declares.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	panic(fmt.Sprintf("go.mod declares no module:\n%s", gomod))
}
