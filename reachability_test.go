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
	"sort"
	"strings"
	"testing"
)

// What counts as production API: an exported function or method under
// internal/ is there because non-test code calls it. This file checks
// that rule by type: every non-test package of the module (cmd/,
// examples/ and the bench/ module included) is type-checked with
// go/types, and a function or method is reached when a non-test file
// other than its own body uses its object (through Origin, so a use of
// an instantiation reaches the generic declaration). A method is also
// reached when its type, or a pointer to it, implements an interface
// whose method of that name non-test code calls, or one of the
// standard-library interfaces the runtime calls (stdlibInterfaces).
//
// The exceptions are testdata/api_allowlist.json, name -> reason. A name
// is "<dir under internal/>.<Func>", "<dir>.<Type>.<Method>", or a bare
// "<dir>" for a whole test-support package.

const (
	apiModule       = "repro"
	apiAllowListMax = 15
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

// apiOrphans returns the exported functions and methods declared in
// non-test files under internal/ that no non-test file reaches and
// allow does not cover, and the entries of allow that cover nothing.
func apiOrphans(files []srcFile, allow map[string]string) (orphans, stale []string, err error) {
	fset := token.NewFileSet()
	byPath := map[string][]*ast.File{} // import path -> its non-test files
	var paths []string
	for _, sf := range files {
		if strings.HasSuffix(sf.path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, sf.path, sf.src, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		p := path.Join(apiModule, path.Dir(sf.path))
		if byPath[p] == nil {
			paths = append(paths, p)
		}
		byPath[p] = append(byPath[p], f)
	}
	sort.Strings(paths)

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		if pkg, ok := checked[p]; ok {
			return pkg, nil
		}
		if byPath[p] == nil {
			return stdlib.Import(p)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p, fset, byPath[p], info)
		checked[p] = pkg
		return pkg, err
	}
	for _, p := range paths {
		if _, err := imp(p); err != nil {
			return nil, nil, err
		}
	}

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
				return nil, nil, err
			}
			scope = pkg.Scope()
		}
		iface := scope.Lookup(name.name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			called[ifaceMethod{iface, iface.Method(i).Name()}] = true
		}
	}
	var decls []*types.Func
	for _, p := range paths {
		for _, f := range byPath[p] {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name]
					if fd.Name.IsExported() && strings.HasPrefix(p, apiModule+"/internal/") {
						decls = append(decls, self.(*types.Func))
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := info.Uses[id].(*types.Func)
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

	used := map[string]bool{}
	for _, fn := range decls {
		dir := strings.TrimPrefix(fn.Pkg().Path(), apiModule+"/internal/")
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
		switch {
		case reached[fn]:
		case allow[key] != "":
			used[key] = true
		case allow[dir] != "":
			used[dir] = true
		default:
			orphans = append(orphans, key)
		}
	}
	for k := range allow {
		if !used[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(orphans)
	sort.Strings(stale)
	return orphans, stale, nil
}

func TestExportedAPIHasProductionCaller(t *testing.T) {
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
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/api_allowlist.json")
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	if err := json.Unmarshal(raw, &allow); err != nil {
		t.Fatalf("testdata/api_allowlist.json: %v", err)
	}
	if len(allow) > apiAllowListMax {
		t.Errorf("allow-list has %d entries, the budget is %d", len(allow), apiAllowListMax)
	}
	for name, reason := range allow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allow-list entry %s has no reason", name)
		}
	}
	orphans, stale, err := apiOrphans(files, allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range orphans {
		t.Errorf("%s is exported but only tests reference it: delete it, move it beside its test, or allow-list it with a reason", o)
	}
	for _, s := range stale {
		t.Errorf("allow-list entry %s is stale: nothing it names lacks a production caller", s)
	}
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
		orphans, stale, err := apiOrphans(files, allow)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fmt.Sprint(orphans) != fmt.Sprint(wantOrphans) || fmt.Sprint(stale) != fmt.Sprint(wantStale) {
			t.Errorf("%s: orphans %v stale %v, want %v and %v", name, orphans, stale, wantOrphans, wantStale)
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
		orphans, stale, err := apiOrphans(c.files, nil)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if fmt.Sprint(orphans) != fmt.Sprint(c.want) || stale != nil {
			t.Errorf("%s: orphans %v stale %v, want %v and none", c.name, orphans, stale, c.want)
		}
	}
}
