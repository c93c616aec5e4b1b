package sage_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The allow-lists name what a census may find, one a line: the entry,
// whitespace, and why it stays. censusAllowList holds exported identifiers
// nothing references, knobAllowList exported configuration fields no program
// sets.
const (
	censusAllowList = "testdata/census_allow.txt"
	knobAllowList   = "testdata/knob_allow.txt"
)

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
	l := repoTree(t)
	checkAllowList(t, l.unreferenced(), censusAllowList,
		"is exported and nothing references it: delete it, or list it in %s with the reason it stays",
		"is listed in %s but is referenced or gone: drop the line")
}

// TestKnobCensus lists every exported field of the root module's
// configuration types that no program writes, and requires the list to be
// exactly the knob allow-list. A configuration type is an exported struct
// named Params or ending in Options, Config, Opts, Spec or Request, unless a
// field carries a json tag: outside input sets a wire type's fields. A write
// is a composite-literal key, the left side of an assignment or an
// increment, or an address-of, on the field or on a field beneath it. It
// counts in a non-test file of the root module outside the field's own
// package, or in any file of a nested module (the end-to-end benchmark,
// tests included).
//
// An unlisted unset field fails the test, and so does a listed one that a
// program now writes or that is gone.
func TestKnobCensus(t *testing.T) {
	l := repoTree(t)
	checkAllowList(t, l.unsetKnobs(), knobAllowList,
		"is an option no program sets: make it a constant, delete it with its code path, unexport it, or list it in %s with the reason it stays",
		"is listed in %s but a program sets it or it is gone: drop the line")
}

// metricOwners are the packages that may register metric families and hold
// their handles: obs, whose event spine owns every family an engine fact
// feeds, and the daemon, which registers the families only saged has.
var metricOwners = []string{"internal/obs", "internal/daemon"}

// TestMetricFamiliesOwnedByObs guards that ownership rule: no non-test file
// outside the owners calls (*obs.Registry).Counter, Gauge or Histogram, or
// declares a struct field whose type holds an obs handle (Counter, Gauge,
// Histogram) or vector (CounterVec, GaugeVec, HistogramVec). A fact that
// feeds a family is an obs.Event on Observer.Emit instead.
func TestMetricFamiliesOwnedByObs(t *testing.T) {
	for _, found := range repoTree(t).foreignMetrics() {
		t.Errorf("%s: metric families are registered and held only in %v; emit an obs.Event instead", found, metricOwners)
	}
}

// TestKnobCensusRejectsDoctoredTree runs the knob census on a scratch module
// that holds a copy of netsim.FlowOpts and a program writing every exported
// field of the copy but the last, once for each kind of write. The census
// must name exactly the unwritten field: reads do not count, nor do writes
// from the field's own package, nor a wire type's unset fields. An
// allow-list line naming a written field must be reported as stale.
func TestKnobCensusRejectsDoctoredTree(t *testing.T) {
	const typeName = "FlowOpts"
	decl, fields := typeSource(t, "internal/netsim/netsim.go", typeName)
	if len(fields) < 2 {
		t.Fatalf("%s has %d exported fields; the test needs two", typeName, len(fields))
	}
	set, unset := fields[:len(fields)-1], fields[len(fields)-1]
	pkg := "package cfg\n\n" + decl + `

// own writes every field from the fields' own package, which does not count.
func own() (o ` + typeName + `) {
` + writeEach(fields, "\to.%[1]s = o.%[1]s\n") + `	return o
}

// WireConfig is outside input: its json-tagged fields are nobody's knobs.
type WireConfig struct {
	Name string ` + "`json:\"name\"`" + `
}
`
	writes := map[string]string{
		"composite literal": "\t_ = cfg." + typeName + "{" + writeEach(set, "%[1]s: o.%[1]s, ") + "}\n",
		"assignment":        writeEach(set, "\to.%[1]s = o.%[1]s\n"),
		"address-of":        writeEach(set, "\t_ = &o.%[1]s\n"),
	}
	want := []string{"cfg." + typeName + "." + unset}
	for how, write := range writes {
		dir := t.TempDir()
		writeTreeFile(t, dir, "go.mod", "module knobs\n\ngo 1.22\n")
		writeTreeFile(t, dir, "cfg/cfg.go", pkg)
		writeTreeFile(t, dir, "cmd/prog/main.go", "package main\n\nimport \"knobs/cfg\"\n\nfunc main() {\n\tvar o cfg."+
			typeName+"\n"+write+"\t_ = o."+unset+"\n}\n")
		l, err := loadTree(dir)
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		found := l.unsetKnobs()
		if !slices.Equal(found, want) {
			t.Errorf("%s: the census found %v unset, want %v", how, found, want)
		}
		allow := filepath.Join(dir, "knob_allow.txt")
		writeTreeFile(t, dir, "knob_allow.txt", want[0]+" nobody sets it\ncfg."+typeName+"."+set[0]+" a program sets it\n")
		unlisted, stale := diffAllowList(found, readAllowList(t, allow))
		if wantStale := []string{"cfg." + typeName + "." + set[0]}; len(unlisted) != 0 || !slices.Equal(stale, wantStale) {
			t.Errorf("%s: allow-list diff: unlisted %v, stale %v; want none and %v", how, unlisted, stale, wantStale)
		}
	}
}

// typeSource returns the declaration of the named type in the Go file at
// path, formatted without comments, and the names of its exported fields.
func typeSource(t *testing.T, path, name string) (string, []string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if ts.Name.Name != name || !ok {
				continue
			}
			var fields []string
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					if id.IsExported() {
						fields = append(fields, id.Name)
					}
				}
			}
			var buf strings.Builder
			if err := format.Node(&buf, token.NewFileSet(), &ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{ts}}); err != nil {
				t.Fatal(err)
			}
			return buf.String(), fields
		}
	}
	t.Fatalf("%s declares no struct type %s", path, name)
	return "", nil
}

// writeEach formats format once per name, the name as its first argument.
func writeEach(names []string, format string) string {
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, format, n)
	}
	return b.String()
}

// writeTreeFile writes content to the slash-separated path under dir.
func writeTreeFile(t *testing.T, dir, path, content string) {
	t.Helper()
	full := filepath.Join(dir, filepath.FromSlash(path))
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkAllowList fails t for each found entry the allow-list at path lacks
// and for each line of it that names no found entry. The messages follow the
// entry and take the path.
func checkAllowList(t *testing.T, found []string, path, unlistedMsg, staleMsg string) {
	t.Helper()
	unlisted, stale := diffAllowList(found, readAllowList(t, path))
	for _, id := range unlisted {
		t.Errorf("%s "+unlistedMsg, id, path)
	}
	for _, id := range stale {
		t.Errorf("%s "+staleMsg, id, path)
	}
}

// diffAllowList returns the found entries that allowed lacks and the allowed
// entries that are not found, each sorted.
func diffAllowList(found []string, allowed map[string]string) (unlisted, stale []string) {
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
	slices.Sort(unlisted)
	slices.Sort(stale)
	return unlisted, stale
}

// readAllowList returns the identifiers of the allow-list at path with their
// reasons.
func readAllowList(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
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
			t.Errorf("%s:%d: %s has no reason", path, n, id)
		}
		if _, dup := allowed[id]; dup {
			t.Errorf("%s:%d: %s is listed twice", path, n, id)
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
	// rootPath is the root module's path.
	rootPath string
	info     *types.Info
	pkgs     map[string]*types.Package
	// refFiles are the files whose uses count as references, filePkg the
	// path of the package each belongs to.
	refFiles []*ast.File
	filePkg  map[*ast.File]string
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
	for _, f := range files {
		l.filePkg[f] = path
	}
	conf := types.Config{Importer: l}
	return conf.Check(path, l.fset, files, l.info)
}

var repoTreeOnce = sync.OnceValues(func() (*censusLoader, error) { return loadTree(".") })

// repoTree returns the repository tree type-checked, once for all tests.
func repoTree(t *testing.T) *censusLoader {
	t.Helper()
	l, err := repoTreeOnce()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// loadTree type-checks every package of the module tree rooted at dir.
func loadTree(dir string) (*censusLoader, error) {
	// The standard library is checked from source; its cgo variants would need
	// a C toolchain run, and its pure-Go ones declare the same API.
	build.Default.CgoEnabled = false
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := &censusLoader{
		fset:    token.NewFileSet(),
		ctxt:    build.Default,
		info:    &types.Info{Uses: make(map[*ast.Ident]types.Object), Defs: make(map[*ast.Ident]types.Object), Types: make(map[ast.Expr]types.TypeAndValue)},
		pkgs:    make(map[string]*types.Package),
		filePkg: make(map[*ast.File]string),
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
			if path == root {
				l.rootPath = modulePath(data)
			}
		}
		if matches, _ := filepath.Glob(filepath.Join(path, "*.go")); len(matches) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		m, _ := l.innermost(dir, func(m censusModule) string { return m.dir }, string(filepath.Separator))
		if _, err := l.load(m, dir); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				return nil, fmt.Errorf("%s: %v", dir, err)
			}
		}
	}
	return l, nil
}

// name returns how the censuses name a member of a counted package: the
// package's path in the root module, then the dot-joined names.
func (l *censusLoader) name(p *types.Package, names ...string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(p.Path(), l.rootPath), "/")
	return rel + "." + strings.Join(names, ".")
}

// unreferenced returns the unreferenced exported identifiers, sorted, each as
// its package's path in the module, a dot, and the name (Type.Method for a
// method).
func (l *censusLoader) unreferenced() []string {
	referenced := make(map[types.Object]bool)
	for _, f := range l.refFiles {
		for _, decl := range f.Decls {
			l.markUses(decl, referenced)
		}
	}
	l.markInterfaceMethods(referenced)

	var out []string
	for _, p := range l.counted {
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			tn, isType := obj.(*types.TypeName)
			_, isFunc := obj.(*types.Func)
			if obj.Exported() && (isType || isFunc) && !referenced[obj] {
				out = append(out, l.name(p, name))
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
					out = append(out, l.name(p, name, m.Name()))
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// unsetKnobs returns the exported fields of the counted packages'
// configuration types that no program writes, sorted, each as
// package.Type.Field.
func (l *censusLoader) unsetKnobs() []string {
	written := make(map[types.Object]bool)
	for _, f := range l.refFiles {
		l.markWrites(f, written)
	}
	var out []string
	for _, p := range l.counted {
		scope := p.Scope()
		for _, name := range scope.Names() {
			st, ok := configStruct(scope.Lookup(name))
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !written[f] {
					out = append(out, l.name(p, name, f.Name()))
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// configStruct returns obj's struct when obj is a configuration type: an
// exported struct type named Params or ending in Options, Config, Opts, Spec
// or Request, none of whose fields carries a json tag.
func configStruct(obj types.Object) (*types.Struct, bool) {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() || !tn.Exported() {
		return nil, false
	}
	name := tn.Name()
	if name != "Params" && !slices.ContainsFunc([]string{"Options", "Config", "Opts", "Spec", "Request"}, func(s string) bool {
		return strings.HasSuffix(name, s)
	}) {
		return nil, false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil, false
	}
	for i := 0; i < st.NumFields(); i++ {
		if _, wire := reflect.StructTag(st.Tag(i)).Lookup("json"); wire {
			return nil, false
		}
	}
	return st, true
}

// markWrites marks each struct field of another package that f writes: a
// composite-literal key, and every field selected along the operand of an
// assignment, an increment or an address-of (o.A.B = v writes B and A).
func (l *censusLoader) markWrites(f *ast.File, written map[types.Object]bool) {
	pkg := l.filePkg[f]
	mark := func(id *ast.Ident) {
		if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg().Path() != pkg {
			written[v.Origin()] = true
		}
	}
	var operand func(ast.Expr)
	operand = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			mark(e.Sel)
			operand(e.X)
		case *ast.IndexExpr:
			operand(e.X)
		case *ast.ParenExpr:
			operand(e.X)
		case *ast.StarExpr:
			operand(e.X)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						mark(id)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				operand(lhs)
			}
		case *ast.IncDecStmt:
			operand(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				operand(n.X)
			}
		}
		return true
	})
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

// foreignMetrics returns, as file:line and what, every registration of a
// metric family and every struct field holding an obs handle or vector in a
// non-test file outside the metric owners.
func (l *censusLoader) foreignMetrics() []string {
	obsPath := l.rootPath + "/internal/obs"
	owned := make(map[string]bool)
	for _, p := range metricOwners {
		owned[l.rootPath+"/"+p] = true
	}
	var out []string
	report := func(n ast.Node, what string) {
		pos := l.fset.Position(n.Pos())
		m, _ := l.innermost(pos.Filename, func(m censusModule) string { return m.dir }, string(filepath.Separator))
		rel, _ := filepath.Rel(m.dir, pos.Filename)
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, what))
	}
	for _, f := range l.refFiles {
		if owned[l.filePkg[f]] || strings.HasSuffix(l.fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := l.info.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != obsPath {
					break
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.TypeString(recv.Type(), nil) == "*"+obsPath+".Registry" {
					switch fn.Name() {
					case "Counter", "Gauge", "Histogram":
						report(n, "registers a metric family through (*obs.Registry)."+fn.Name())
					}
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if h := obsHandle(l.info.Types[field.Type].Type, obsPath); h != "" {
						report(field, "a struct field holds obs."+h)
					}
				}
			}
			return true
		})
	}
	slices.Sort(out)
	return out
}

// obsHandle returns the name of the obs handle or vector type t is or holds
// (through pointers, slices, arrays, maps and channels), "" if none.
func obsHandle(t types.Type, obsPath string) string {
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == obsPath {
			switch obj.Name() {
			case "Counter", "Gauge", "Histogram", "CounterVec", "GaugeVec", "HistogramVec":
				return obj.Name()
			}
		}
	case *types.Pointer:
		return obsHandle(t.Elem(), obsPath)
	case *types.Slice:
		return obsHandle(t.Elem(), obsPath)
	case *types.Array:
		return obsHandle(t.Elem(), obsPath)
	case *types.Chan:
		return obsHandle(t.Elem(), obsPath)
	case *types.Map:
		if h := obsHandle(t.Key(), obsPath); h != "" {
			return h
		}
		return obsHandle(t.Elem(), obsPath)
	}
	return ""
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
