package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// runtimeSymbols are the names ARCHITECTURE.md cites from CPU and
// allocation profiles: the Go runtime's unexported internals, which no
// package the module imports exports.
var runtimeSymbols = map[string]bool{
	"memclrNoHeapPointers": true, "bulkBarrierPreWrite": true,
}

// TestArchitectureNamesExist holds ARCHITECTURE.md's code names to the
// code: every backticked Go identifier or dotted path outside fenced
// blocks, and every dotted path inside them that starts with one of the
// module's packages, must name something a .go file of the repository,
// or a standard-library package it imports, declares.
//
// A backticked span is treated as a name when, after one leading `*` or
// `&` and one trailing `()` are dropped, it is identifiers joined by
// dots (`Frontier`, `Cluster.Occupy`, `rjms.Controller.Start`) holding
// both an upper-case and a lower-case letter. All-lower-case spans
// (`json`, `done`, `spec_hash`) are words, states and wire keys as often
// as code, all-upper-case ones (`MIX`, `GOGC`, `DELETE`) policies,
// variables and protocol words; spans with anything else in them
// (arguments, slashes, spaces, flags, placeholders) are prose, and file
// names (`*.go`, `*.json`, ...) are neither. A name resolves when
//
//   - its first part is a package of the module: the next part is
//     declared at that package's top level, and a third is a field or
//     method (promoted ones included) of that type;
//   - its first part names a standard-library package the repository
//     imports: it is not checked;
//   - its first part is a type: the next is one of its fields or
//     methods;
//   - otherwise (a variable, a receiver): the first part is declared
//     somewhere and every later part is some type's field or method.
//
// Declarations come from the type-checked non-test code (every object
// it defines, locals included) and from the test files' top-level
// declarations, struct fields and methods, so a test cited as the pin
// of a rule must exist too. A name they do not resolve may still be an
// exported name, or an exported type's field or method, of a
// standard-library package the repository imports (`Flusher`,
// `Info.Uses`). runtimeSymbols lists the rest.
func TestArchitectureNamesExist(t *testing.T) {
	raw, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := repoNames()
	if err != nil {
		t.Fatal(err)
	}
	prose, fenced := splitFenced(string(raw))
	var missing []string
	for _, tok := range append(backtickedNames(prose), fencedNames(fenced, ix.pkgs)...) {
		if parts := strings.Split(tok, "."); !runtimeSymbols[tok] && !ix.resolves(parts) && !ix.inStdlib(parts) {
			missing = append(missing, tok)
		}
	}
	for _, tok := range missing {
		t.Errorf("ARCHITECTURE.md names `%s`, which nothing in the repository declares", tok)
	}
}

var (
	backtickSpan = regexp.MustCompile("`([^`]+)`")
	dottedName   = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$`)
	fileSuffix   = regexp.MustCompile(`\.(go|json|md|sh|yml|yaml|csv|txt|swf|mod)$`)
)

// splitFenced splits a markdown document into its prose and the text of
// its fenced blocks.
func splitFenced(doc string) (prose, fenced string) {
	var out [2]strings.Builder
	in := 0
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = 1 - in
			continue
		}
		out[in].WriteString(line)
		out[in].WriteByte('\n')
	}
	return out[0].String(), out[1].String()
}

// backtickedNames returns the distinct backticked spans of markdown
// prose that read as Go names (see TestArchitectureNamesExist).
func backtickedNames(prose string) []string {
	seen := map[string]bool{}
	var names []string
	for _, m := range backtickSpan.FindAllStringSubmatch(prose, -1) {
		tok := strings.TrimSuffix(strings.TrimLeft(m[1], "*&"), "()")
		if !dottedName.MatchString(tok) || fileSuffix.MatchString(tok) ||
			strings.ToLower(tok) == tok || strings.ToUpper(tok) == tok || seen[tok] {
			continue
		}
		seen[tok] = true
		names = append(names, tok)
	}
	sort.Strings(names)
	return names
}

// fencedPath is a dotted path in a diagram or listing, not part of a
// longer word, a file path or a file name.
var fencedPath = regexp.MustCompile(`(^|[^A-Za-z0-9_./])([a-z][a-z0-9]*(\.[A-Za-z_][A-Za-z0-9_]*)+)`)

// fencedNames returns the distinct dotted paths in fenced blocks whose
// first part is a package of the module (`rjms.Controller.Start`,
// `sim.RunObserved`): diagrams name code too, and a path into one of
// the module's packages is never prose.
func fencedNames(fenced string, pkgs map[string]map[string]bool) []string {
	seen := map[string]bool{}
	var names []string
	for _, m := range fencedPath.FindAllStringSubmatch(fenced, -1) {
		tok := m[2]
		if pkgs[tok[:strings.IndexByte(tok, '.')]] == nil || fileSuffix.MatchString(tok) || seen[tok] {
			continue
		}
		seen[tok] = true
		names = append(names, tok)
	}
	sort.Strings(names)
	return names
}

// nameIndex is what the repository declares, by the shapes a document
// cites it in.
type nameIndex struct {
	pkgs    map[string]map[string]bool // package name -> its top-level names
	std     map[string]*types.Package  // the standard-library packages the repository imports, by name
	types   map[string]map[string]bool // type name -> its fields and methods
	any     map[string]bool            // every declared name
	members map[string]bool            // every field and method name
}

func (ix *nameIndex) resolves(parts []string) bool {
	head, rest := parts[0], parts[1:]
	if len(rest) == 0 {
		return ix.any[head]
	}
	if top, ok := ix.pkgs[head]; ok {
		if !top[rest[0]] {
			return false
		}
		head, rest = rest[0], rest[1:]
		if len(rest) == 0 {
			return true
		}
	} else if ix.std[head] != nil {
		return true
	}
	if fields, ok := ix.types[head]; ok {
		if !fields[rest[0]] {
			return false
		}
		rest = rest[1:]
	} else if !ix.any[head] {
		return false
	}
	for _, p := range rest {
		if !ix.members[p] {
			return false
		}
	}
	return true
}

// inStdlib resolves a name the repository does not declare against the
// standard-library packages it imports: an exported package-level
// name, or an exported type's field or method.
func (ix *nameIndex) inStdlib(parts []string) bool {
	for _, pkg := range ix.std {
		obj := pkg.Scope().Lookup(parts[0])
		if obj == nil || !obj.Exported() || len(parts) > 2 {
			continue
		}
		if len(parts) == 1 {
			return true
		}
		if tn, ok := obj.(*types.TypeName); ok {
			if f, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), parts[1]); f != nil {
				return true
			}
		}
	}
	return false
}

func (ix *nameIndex) member(typ, name string) {
	if ix.types[typ] == nil {
		ix.types[typ] = map[string]bool{}
	}
	ix.types[typ][name] = true
	ix.members[name] = true
	ix.any[name] = true
}

func (ix *nameIndex) topLevel(pkg, name string) {
	if ix.pkgs[pkg] == nil {
		ix.pkgs[pkg] = map[string]bool{}
	}
	ix.pkgs[pkg][name] = true
	ix.any[name] = true
}

// repoNames indexes the repository's declarations: the type-checked
// non-test code of repoModule, and the test files parsed alone.
func repoNames() (*nameIndex, error) {
	m, err := repoModule()
	if err != nil {
		return nil, err
	}
	ix := &nameIndex{
		pkgs: map[string]map[string]bool{}, std: map[string]*types.Package{},
		types: map[string]map[string]bool{}, any: map[string]bool{}, members: map[string]bool{},
	}
	for _, obj := range m.info.Defs {
		if obj == nil {
			continue
		}
		ix.any[obj.Name()] = true
		if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				ix.members[v.Name()] = true
			}
			continue
		}
		ix.topLevel(obj.Pkg().Name(), obj.Name())
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			ix.member(tn.Name(), ms.At(i).Obj().Name())
		}
		fieldsOf(tn.Type(), func(name string) { ix.member(tn.Name(), name) })
	}

	imported := map[string]bool{}
	addImports := func(f *ast.File) {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != apiModule && !strings.HasPrefix(p, apiModule+"/") {
				imported[p] = true
			}
		}
	}
	for _, files := range m.files {
		for _, f := range files {
			addImports(f)
		}
	}
	files, err := repoSources()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	for _, sf := range files {
		if !strings.HasSuffix(sf.path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, sf.path, sf.src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		addImports(f)
		testDecls(ix, strings.TrimSuffix(f.Name.Name, "_test"), f)
	}
	for p := range imported {
		pkg, err := stdlib.Import(p)
		if err != nil {
			return nil, err
		}
		ix.std[pkg.Name()] = pkg
	}
	return ix, nil
}

// fieldsOf calls fn with every field name of a struct type, the fields
// of embedded structs included.
func fieldsOf(t types.Type, fn func(string)) {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fn(f.Name())
		if f.Embedded() {
			ft := f.Type()
			if p, ok := ft.(*types.Pointer); ok {
				ft = p.Elem()
			}
			fieldsOf(ft, fn)
		}
	}
}

// testDecls indexes a test file's top-level declarations, its types'
// fields and its methods.
func testDecls(ix *nameIndex, pkg string, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ix.topLevel(pkg, d.Name.Name)
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				ix.member(id.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					ix.topLevel(pkg, spec.Name.Name)
					if st, ok := spec.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, n := range fl.Names {
								ix.member(spec.Name.Name, n.Name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						ix.topLevel(pkg, n.Name)
					}
				}
			}
		}
	}
}
