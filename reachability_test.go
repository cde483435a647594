package repro_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// What counts as production API: an exported function or method under
// internal/ is there because non-test code calls it. This file checks
// that rule by name over the parsed tree (no type checker): a function
// is reached by a bare identifier in its own package or by pkg.Name
// through an import of its package; a method is reached by any selector
// of its name or by an interface that declares it. Matching by name can
// miss an orphan that shares a name with a live identifier; it cannot
// report a function that production calls.
//
// The exceptions are testdata/api_allowlist.json, name -> reason. A name
// is "<dir under internal/>.<Func>", "<dir>.<Type>.<Method>", or a bare
// "<dir>" for a whole test-support package.

const (
	apiModule       = "repro"
	apiAllowListMax = 20
)

// stdlibInterfaces names, per method, the standard-library interface a
// method of that name satisfies: the runtime or the library calls it
// (fmt through %v, encoding/json, net/http, sort), no selector in this
// repository has to.
var stdlibInterfaces = map[string]string{
	"String":        "fmt.Stringer",
	"Error":         "error",
	"MarshalJSON":   "encoding/json.Marshaler",
	"UnmarshalJSON": "encoding/json.Unmarshaler",
	"ServeHTTP":     "net/http.Handler",
	"RoundTrip":     "net/http.RoundTripper",
	"Flush":         "net/http.Flusher",
	"Read":          "io.Reader",
	"Write":         "io.Writer",
	"Close":         "io.Closer",
	"Len":           "sort.Interface",
	"Less":          "sort.Interface",
	"Swap":          "sort.Interface",
}

type srcFile struct {
	path string // slash-separated, relative to the repository root
	src  []byte
}

// apiOrphans returns the exported functions and methods declared in
// non-test files under internal/ that no non-test file references and
// allow does not cover, and the entries of allow that cover nothing.
func apiOrphans(files []srcFile, allow map[string]string) (orphans, stale []string, err error) {
	type decl struct{ key, dir, name string }
	var (
		decls     []decl
		method    = map[string]bool{}            // decl key -> it is a method
		bare      = map[string]map[string]bool{} // dir -> identifiers its non-test files use
		qualified = map[string]map[string]bool{} // import path -> names selected through it
		selected  = map[string]bool{}            // every selected or interface-declared name
	)
	set := func(m map[string]map[string]bool, k, name string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][name] = true
	}
	fset := token.NewFileSet()
	for _, sf := range files {
		if strings.HasSuffix(sf.path, "_test.go") {
			continue
		}
		f, perr := parser.ParseFile(fset, sf.path, sf.src, parser.SkipObjectResolution)
		if perr != nil {
			return nil, nil, perr
		}
		dir := filepath.ToSlash(filepath.Dir(sf.path))
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			self := ""
			if ok && fd.Recv == nil {
				self = fd.Name.Name
			}
			if ok && fd.Name.IsExported() && strings.HasPrefix(dir, "internal/") {
				pkg := strings.TrimPrefix(dir, "internal/")
				key := pkg + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := receiverName(fd.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						recv = "" // reachable only through an interface or a selector anyway
					}
					key = pkg + "." + recv + "." + fd.Name.Name
					method[key] = true
				}
				decls = append(decls, decl{key, dir, fd.Name.Name})
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					selected[x.Sel.Name] = true
					if id, ok := x.X.(*ast.Ident); ok {
						if p, ok := imports[id.Name]; ok {
							set(qualified, p, x.Sel.Name)
						}
					}
					ast.Inspect(x.X, visit) // x.Sel is not a bare use of its name
					return false
				case *ast.InterfaceType:
					for _, m := range x.Methods.List {
						for _, name := range m.Names {
							selected[name.Name] = true
						}
					}
				case *ast.Ident:
					if x.Name != self {
						set(bare, dir, x.Name)
					}
				}
				return true
			}
			if !ok {
				ast.Inspect(d, visit)
				continue
			}
			// Everything but the declared name, which is not a use of itself.
			if fd.Recv != nil {
				ast.Inspect(fd.Recv, visit)
			}
			ast.Inspect(fd.Type, visit)
			if fd.Body != nil {
				ast.Inspect(fd.Body, visit)
			}
		}
	}

	used := map[string]bool{}
	for _, d := range decls {
		reached := false
		if method[d.key] {
			_, iface := stdlibInterfaces[d.name]
			reached = selected[d.name] || iface
		} else {
			reached = bare[d.dir][d.name] || qualified[apiModule+"/"+d.dir][d.name]
		}
		pkg := strings.TrimPrefix(d.dir, "internal/")
		switch {
		case reached:
		case allow[d.key] != "":
			used[d.key] = true
		case allow[pkg] != "":
			used[pkg] = true
		default:
			orphans = append(orphans, d.key)
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

func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func TestExportedAPIHasProductionCaller(t *testing.T) {
	var files []srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is a module of its own; what it imports is on the allow-list.
			if name := d.Name(); path != "." && (name == "bench" && path == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files = append(files, srcFile{filepath.ToSlash(path), src})
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
}
