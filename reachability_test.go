package repro_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// What counts as production API: an exported function, method or
// struct field under internal/ is there because non-test code uses it.
// This file checks that rule by type: every non-test package of the
// module (cmd/, examples/ and the bench/ module included) is
// type-checked once with go/types, and
//
//   - a function or method is reached when a non-test file other than
//     its own body uses its object (through Origin, so a use of an
//     instantiation reaches the generic declaration). A method is also
//     reached when its type, or a pointer to it, implements an
//     interface whose method of that name non-test code calls, or one
//     of the standard-library interfaces the runtime calls
//     (stdlibInterfaces);
//   - an exported field of an exported struct type is set when a
//     non-test file names it as a composite-literal key, fills it
//     positionally, assigns, op-assigns, increments or decrements it,
//     takes its address, or ranges into it — outside its own type's
//     withDefaults method, since a default is not a setter. A field
//     with a json tag is set by the decoder. Every field is a knob; one
//     nothing sets is always its zero value or its default.
//
// The exceptions are testdata/api_allowlist.json, name -> reason. A name
// is "<dir under internal/>.<Func>", "<dir>.<Type>.<Method or Field>",
// or a bare "<dir>" for a whole test-support package. A test-support
// package's own exports need no other entry, and its uses and writes do
// not count as production ones.

const (
	apiModule       = "repro"
	apiAllowListMax = 12
)

// stdlibInterfaces are the standard-library interfaces whose methods
// the runtime or the library calls (fmt through %v, encoding/json,
// net/http, io, sort) without a selector in this repository.
var stdlibInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"}, {"", "error"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"}, {"net/http", "Flusher"}, {"net/http", "RoundTripper"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
	{"sort", "Interface"},
}

// stdlib imports standard-library packages from their export data; it
// is shared so each package is loaded once per test binary.
var stdlib = importer.Default()

type srcFile struct {
	path string // slash-separated, relative to the repository root
	src  []byte
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// module is the type-checked non-test code of the module.
type module struct {
	paths []string               // import paths, sorted
	files map[string][]*ast.File // import path -> its non-test files
	fset  *token.FileSet         // positions name files by repository path
	info  *types.Info
}

func loadModule(files []srcFile) (*module, error) {
	fset := token.NewFileSet()
	m := &module{files: map[string][]*ast.File{}, fset: fset, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, sf := range files {
		if strings.HasSuffix(sf.path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, sf.path, sf.src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p := path.Join(apiModule, path.Dir(sf.path))
		if m.files[p] == nil {
			m.paths = append(m.paths, p)
		}
		m.files[p] = append(m.files[p], f)
	}
	sort.Strings(m.paths)

	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		if pkg, ok := checked[p]; ok {
			return pkg, nil
		}
		if m.files[p] == nil {
			return stdlib.Import(p)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p, fset, m.files[p], m.info)
		checked[p] = pkg
		return pkg, err
	}
	for _, p := range m.paths {
		if _, err := imp(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// internalDir is the directory under internal/ of an import path, or ""
// outside internal/.
func internalDir(p string) string {
	if dir, ok := strings.CutPrefix(p, apiModule+"/internal/"); ok {
		return dir
	}
	return ""
}

type apiReport struct {
	funcs  []string // exported functions and methods no non-test file reaches
	fields []string // exported fields no non-test file sets
	stale  []string // allow-list entries that cover neither
}

// audit runs both scans against allow.
func (m *module) audit(allow map[string]string) (apiReport, error) {
	used := map[string]bool{}
	cover := func(key, dir string) bool {
		switch {
		case allow[key] != "":
			used[key] = true
		case allow[dir] != "":
			used[dir] = true
		default:
			return false
		}
		return true
	}
	// Production packages: a test-support package's uses are test uses.
	var prod []string
	for _, p := range m.paths {
		if dir := internalDir(p); dir == "" || allow[dir] == "" {
			prod = append(prod, p)
		}
	}
	funcs, err := m.funcOrphans(prod, cover)
	if err != nil {
		return apiReport{}, err
	}
	r := apiReport{funcs: funcs, fields: m.fieldOrphans(prod, cover)}
	for k := range allow {
		if !used[k] {
			r.stale = append(r.stale, k)
		}
	}
	sort.Strings(r.stale)
	return r, nil
}

// funcOrphans returns the exported functions and methods declared in
// non-test files under internal/ that no file of prod reaches and cover
// does not excuse.
func (m *module) funcOrphans(prod []string, cover func(key, dir string) bool) ([]string, error) {
	// Every use outside the used function's own declaration reaches it;
	// a selector records its Sel identifier among the uses. A use of an
	// interface method keeps the interface, for the implementations.
	type ifaceMethod struct {
		iface *types.Interface
		name  string
	}
	reached := map[*types.Func]bool{}
	called := map[ifaceMethod]bool{}
	for _, name := range stdlibInterfaces {
		scope := types.Universe
		if name.pkg != "" {
			pkg, err := stdlib.Import(name.pkg)
			if err != nil {
				return nil, err
			}
			scope = pkg.Scope()
		}
		iface := scope.Lookup(name.name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			called[ifaceMethod{iface, iface.Method(i).Name()}] = true
		}
	}
	for _, p := range prod {
		for _, f := range m.files[p] {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = m.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := m.info.Uses[id].(*types.Func)
					if !ok || fn.Origin() == self {
						return true
					}
					reached[fn.Origin()] = true
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
							called[ifaceMethod{iface, fn.Name()}] = true
						}
					}
					return true
				})
			}
		}
	}

	var orphans []string
	for _, p := range m.paths {
		dir := internalDir(p)
		if dir == "" {
			continue
		}
		for _, f := range m.files[p] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := m.info.Defs[fd.Name].(*types.Func)
				key := dir + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					t := recv.Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					name := t.(*types.Named).Obj().Name()
					if !ast.IsExported(name) {
						name = "" // reachable only through an interface or a selector anyway
					}
					key = dir + "." + name + "." + fn.Name()
					for c := range called {
						if c.name == fn.Name() && (types.Implements(t, c.iface) || types.Implements(types.NewPointer(t), c.iface)) {
							reached[fn] = true
						}
					}
				}
				if !reached[fn] && !cover(key, dir) {
					orphans = append(orphans, key)
				}
			}
		}
	}
	sort.Strings(orphans)
	return orphans, nil
}

// fieldOrphans returns the exported fields of exported struct types
// declared in non-test files under internal/ that no file of prod sets
// and cover does not excuse.
func (m *module) fieldOrphans(prod []string, cover func(key, dir string) bool) []string {
	set := map[*types.Var]bool{}
	for _, p := range prod {
		for _, f := range m.files[p] {
			for _, d := range f.Decls {
				// A write in a type's withDefaults sets none of its fields.
				var defaults *types.Struct
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "withDefaults" && fd.Recv != nil {
					recv := m.info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
					defaults, _ = recv.Underlying().(*types.Struct)
				}
				write := func(e ast.Expr) {
					sel, ok := e.(*ast.SelectorExpr)
					if !ok {
						return
					}
					if v, ok := m.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() && !ownField(defaults, v) {
						set[v.Origin()] = true
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						t := m.info.TypeOf(n)
						if p, ok := t.(*types.Pointer); ok {
							t = p.Elem()
						}
						st, ok := t.Underlying().(*types.Struct)
						if !ok {
							return true
						}
						for i, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								set[m.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
							} else {
								set[st.Field(i).Origin()] = true
							}
						}
					case *ast.AssignStmt:
						for _, e := range n.Lhs {
							write(e)
						}
					case *ast.IncDecStmt:
						write(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							write(n.X)
						}
					case *ast.RangeStmt:
						write(n.Key)
						write(n.Value)
					}
					return true
				})
			}
		}
	}

	var orphans []string
	for _, p := range m.paths {
		dir := internalDir(p)
		if dir == "" {
			continue
		}
		for _, f := range m.files[p] {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, s := range gd.Specs {
					ts := s.(*ast.TypeSpec)
					st, ok := m.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
					if !ok || !ts.Name.IsExported() || ts.Assign.IsValid() {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						v := st.Field(i)
						if !v.Exported() || set[v] {
							continue
						}
						if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok && tag != "-" {
							continue
						}
						if key := dir + "." + ts.Name.Name + "." + v.Name(); !cover(key, dir) {
							orphans = append(orphans, key)
						}
					}
				}
			}
		}
	}
	sort.Strings(orphans)
	return orphans
}

// ownField reports whether v is one of st's own fields.
func ownField(st *types.Struct, v *types.Var) bool {
	for i := 0; st != nil && i < st.NumFields(); i++ {
		if st.Field(i) == v.Origin() {
			return true
		}
	}
	return false
}

func apiAudit(files []srcFile, allow map[string]string) (apiReport, error) {
	m, err := loadModule(files)
	if err != nil {
		return apiReport{}, err
	}
	return m.audit(allow)
}

// repoSources reads every .go file of the repository (test files and
// the bench/ module included; testdata and dot directories skipped)
// once per test binary.
var repoSources = sync.OnceValues(func() ([]srcFile, error) {
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		files = append(files, srcFile{filepath.ToSlash(p), src})
		return nil
	})
	return files, err
})

// repoModule type-checks the repository's non-test code once per test
// binary; the API audit and the architecture name check share it.
var repoModule = sync.OnceValues(func() (*module, error) {
	files, err := repoSources()
	if err != nil {
		return nil, err
	}
	return loadModule(files)
})

// repoAudit runs both scans against the allow-list once per test
// binary; each test reports its share.
var repoAudit = sync.OnceValues(func() (apiReport, error) {
	m, err := repoModule()
	if err != nil {
		return apiReport{}, err
	}
	allow, err := readAllowList()
	if err != nil {
		return apiReport{}, err
	}
	return m.audit(allow)
})

func readAllowList() (map[string]string, error) {
	raw, err := os.ReadFile("testdata/api_allowlist.json")
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	if err := json.Unmarshal(raw, &allow); err != nil {
		return nil, fmt.Errorf("testdata/api_allowlist.json: %v", err)
	}
	return allow, nil
}

// checkAllowList reports the allow-list's own faults: over budget, an
// entry with no reason, an entry that covers nothing.
func checkAllowList(t *testing.T, stale []string) {
	t.Helper()
	allow, err := readAllowList()
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) > apiAllowListMax {
		t.Errorf("allow-list has %d entries, the budget is %d", len(allow), apiAllowListMax)
	}
	for name, reason := range allow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allow-list entry %s has no reason", name)
		}
	}
	for _, s := range stale {
		t.Errorf("allow-list entry %s is stale: nothing it names lacks a production caller or writer", s)
	}
}

func TestExportedAPIHasProductionCaller(t *testing.T) {
	r, err := repoAudit()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range r.funcs {
		t.Errorf("%s is exported but only tests reference it: delete it, move it beside its test, or allow-list it with a reason", o)
	}
	checkAllowList(t, r.stale)
}

func TestExportedFieldHasProductionWriter(t *testing.T) {
	r, err := repoAudit()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range r.fields {
		t.Errorf("%s is an exported field no production code sets: delete it, unexport it beside its test, or allow-list it with a reason", o)
	}
	checkAllowList(t, r.stale)
}

func TestReachabilityScanNegativeCases(t *testing.T) {
	lib := srcFile{"internal/lib/lib.go", []byte(`package lib
func Used() int { return helper() }
func helper() int { return 1 }
func OnlyTested() int { return OnlyTested() + 2 }
type T struct{}
func (T) Reached() {}
func (*T) Orphaned() {}
func (T) MarshalJSON() ([]byte, error) { return nil, nil }
`)}
	libTest := srcFile{"internal/lib/lib_test.go", []byte(`package lib
func use() { OnlyTested(); (&T{}).Orphaned() }
`)}
	main := srcFile{"cmd/tool/main.go", []byte(`package main
import l "` + apiModule + `/internal/lib"
func main() { l.Used(); l.T{}.Reached() }
`)}
	files := []srcFile{lib, libTest, main}

	check := func(name string, allow map[string]string, wantOrphans, wantStale []string) {
		t.Helper()
		r, err := apiAudit(files, allow)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fmt.Sprint(r.funcs) != fmt.Sprint(wantOrphans) || fmt.Sprint(r.stale) != fmt.Sprint(wantStale) {
			t.Errorf("%s: orphans %v stale %v, want %v and %v", name, r.funcs, r.stale, wantOrphans, wantStale)
		}
	}
	check("test-only function and method are named", nil,
		[]string{"lib.OnlyTested", "lib.T.Orphaned"}, nil)
	check("an allow-listed one passes",
		map[string]string{"lib.OnlyTested": "oracle", "lib.T.Orphaned": "seam"}, nil, nil)
	check("a whole test-support package passes",
		map[string]string{"lib": "test support"}, nil, nil)
	check("an entry for a function production calls is stale",
		map[string]string{"lib": "test support", "lib.Used": "no longer needed"}, nil, []string{"lib.Used"})
	check("an entry for a function that is gone is stale",
		map[string]string{"lib.OnlyTested": "oracle", "lib.T.Orphaned": "seam", "lib.Deleted": "was here"},
		nil, []string{"lib.Deleted"})

	// Reachability follows types, not names: each case is a package
	// under internal/ and a main package that uses it.
	pkg := func(dir, src string) srcFile {
		return srcFile{dir + "/x.go", []byte("package " + path.Base(dir) + "\n" + src)}
	}
	prog := func(dir, src string) srcFile {
		return pkg(dir, `import l "`+apiModule+`/internal/lib"`+"\n"+src)
	}
	for _, c := range []struct {
		name  string
		files []srcFile
		want  []string
	}{
		{"a method named like another type's called method is an orphan", []srcFile{
			pkg("internal/lib", `type Book struct{}
func (*Book) Remove(id int) {}
type Fleet struct{}
func (*Fleet) Remove(name string) {}`),
			prog("cmd/tool", `func main() { (&l.Fleet{}).Remove("w") }`),
		}, []string{"lib.Book.Remove"}},
		{"a method named like a selected struct field is an orphan", []srcFile{
			pkg("internal/lib", `type Config struct{ Options int }
type Controller struct{ cfg Config }
func (c *Controller) Options() int { return c.cfg.Options }`),
			prog("cmd/tool", `func main() { _ = l.Config{}.Options }`),
		}, []string{"lib.Controller.Options"}},
		{"a method named like a type selected through an import is an orphan", []srcFile{
			pkg("internal/core", `type PolicyModel struct{}`),
			pkg("internal/lib", `import "`+apiModule+`/internal/core"
type Controller struct{ pm core.PolicyModel }
func (c *Controller) PolicyModel() core.PolicyModel { return c.pm }`),
			pkg("cmd/tool", `import "`+apiModule+`/internal/core"
var _ core.PolicyModel
func main() {}`),
		}, []string{"lib.Controller.PolicyModel"}},
		{"a method called through an interface value is reached, a same-named non-implementation is not", []srcFile{
			pkg("internal/lib", `type Sizer interface{ Size() int }
type Box struct{}
func (Box) Size() int { return 1 }
type Other struct{}
func (Other) Size(scale int) int { return scale }`),
			prog("cmd/tool", `func main() { var s l.Sizer = l.Box{}; _ = s.Size() }`),
		}, []string{"lib.Other.Size"}},
		{"a method of a generic type called on an instantiation is reached", []srcFile{
			pkg("internal/lib", `type Registry[T any] struct{ m map[string]T }
func (r *Registry[T]) Lookup(name string) T { return r.m[name] }
func (r *Registry[T]) Names() []string { return nil }`),
			prog("cmd/tool", `func main() { var r l.Registry[int]; _ = r.Lookup("x") }`),
		}, []string{"lib.Registry.Names"}},
		{"MarshalJSON is reached through encoding/json, MarshalText is not on the list", []srcFile{
			pkg("internal/lib", `type T struct{}
func (T) MarshalJSON() ([]byte, error) { return nil, nil }
func (T) MarshalText() ([]byte, error) { return nil, nil }`),
		}, []string{"lib.T.MarshalText"}},
		{"a function called only from the bench module is reached", []srcFile{
			pkg("internal/lib", `func Used() {}`),
			prog("bench", `func main() { l.Used() }`),
		}, nil},
	} {
		r, err := apiAudit(c.files, nil)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if fmt.Sprint(r.funcs) != fmt.Sprint(c.want) || r.stale != nil {
			t.Errorf("%s: orphans %v stale %v, want %v and none", c.name, r.funcs, r.stale, c.want)
		}
	}

	// A test-support package's own exports are covered by its entry, but
	// what it calls is reached only if production calls it too.
	r, err := apiAudit([]srcFile{
		pkg("internal/lib", `func Helper() {}
func Used() {}`),
		pkg("internal/support", `import "`+apiModule+`/internal/lib"
func Check() { lib.Helper() }`),
		prog("cmd/tool", `func main() { l.Used() }`),
	}, map[string]string{"support": "test support"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r.funcs) != "[lib.Helper]" || r.stale != nil {
		t.Errorf("test-support caller: orphans %v stale %v, want [lib.Helper] and none", r.funcs, r.stale)
	}
}

func TestFieldScanNegativeCases(t *testing.T) {
	pkg := func(dir, src string) srcFile {
		return srcFile{dir + "/x.go", []byte("package " + path.Base(dir) + "\n" + src)}
	}
	prog := func(dir, src string) srcFile {
		return pkg(dir, `import l "`+apiModule+`/internal/lib"`+"\n"+src)
	}
	for _, c := range []struct {
		name  string
		files []srcFile
		allow map[string]string
		want  []string
		stale []string
	}{
		{"a field set only in a test file is reported", []srcFile{
			pkg("internal/lib", `type Opt struct{ Used, OnlyTested int }`),
			{"internal/lib/lib_test.go", []byte(`package lib
var _ = Opt{OnlyTested: 1}`)},
			prog("cmd/tool", `func main() { _ = l.Opt{Used: 1} }`),
		}, nil, []string{"lib.Opt.OnlyTested"}, nil},
		{"an allow-listed field passes", []srcFile{
			pkg("internal/lib", `type Opt struct{ Used, OnlyTested int }`),
			prog("cmd/tool", `func main() { _ = l.Opt{Used: 1} }`),
		}, map[string]string{"lib.Opt.OnlyTested": "read by a frozen caller"}, nil, nil},
		{"an entry for a field production sets is stale", []srcFile{
			pkg("internal/lib", `type Opt struct{ Used int }`),
			prog("cmd/tool", `func main() { _ = l.Opt{Used: 1} }`),
		}, map[string]string{"lib.Opt.Used": "no longer needed"}, nil, []string{"lib.Opt.Used"}},
		{"every write form sets, a read does not, unexported fields and types are out of scope", []srcFile{
			pkg("internal/lib", `type T struct{ Key, Assign, OpAssign, Inc, Dec, Addr, RangeKey, RangeValue, Read int; hidden int }
type Pair struct{ X, Y int }
type unexported struct{ Z int }`),
			prog("cmd/tool", `func main() {
	t := l.T{Key: 1}
	_ = l.Pair{1, 2}
	t.Assign = 1
	t.OpAssign += 1
	t.Inc++
	t.Dec--
	_ = &t.Addr
	for t.RangeKey, t.RangeValue = range map[int]int{} {
	}
	_ = t.Read
}`),
		}, nil, []string{"lib.T.Read"}, nil},
		{"a write through a promoted embedding sets the promoted field, not the embedded one", []srcFile{
			pkg("internal/lib", `type Options struct{ BackfillDepth int }
type Config struct{ Options }`),
			prog("cmd/tool", `func main() { var cfg l.Config; cfg.BackfillDepth = 3; _ = cfg }`),
		}, nil, []string{"lib.Config.Options"}, nil},
		{"a json-tagged field is set by the decoder, a json:\"-\" one is not", []srcFile{
			pkg("internal/lib", "type Spec struct {\n\tName string `json:\"name\"`\n\tSkip int `json:\"-\"`\n}"),
		}, nil, []string{"lib.Spec.Skip"}, nil},
		{"a write in the type's own withDefaults does not set, one elsewhere does", []srcFile{
			pkg("internal/lib", `type Config struct{ Timeout, Depth int }
func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 5
	}
	return c
}
func New(c Config) int { c = c.withDefaults(); c.Depth = 2; return c.Timeout + c.Depth }`),
			prog("cmd/tool", `func main() { _ = l.New(l.Config{}) }`),
		}, nil, []string{"lib.Config.Timeout"}, nil},
		{"a write from the bench module sets", []srcFile{
			pkg("internal/lib", `type Config struct{ N int }`),
			prog("bench", `func main() { var c l.Config; c.N = 1; _ = c }`),
		}, nil, nil, nil},
		{"a field of a generic struct set through an instantiation is set", []srcFile{
			pkg("internal/lib", `type Box[T any] struct{ V, W, X T }`),
			prog("cmd/tool", `func main() { b := l.Box[int]{V: 1}; b.W = 2; _ = b }`),
		}, nil, []string{"lib.Box.X"}, nil},
		{"a field set only from a test-support package is reported", []srcFile{
			pkg("internal/lib", `type Opt struct{ N int }`),
			pkg("internal/support", `import "`+apiModule+`/internal/lib"
type Probe struct{ M int }
var _ = lib.Opt{N: 1}`),
		}, map[string]string{"support": "test support"}, []string{"lib.Opt.N"}, nil},
	} {
		r, err := apiAudit(c.files, c.allow)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if fmt.Sprint(r.fields) != fmt.Sprint(c.want) || fmt.Sprint(r.stale) != fmt.Sprint(c.stale) {
			t.Errorf("%s: fields %v stale %v, want %v and %v", c.name, r.fields, r.stale, c.want, c.stale)
		}
	}
}
