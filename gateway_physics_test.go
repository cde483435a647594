package repro_test

import (
	"fmt"
	"go/types"
	"sort"
	"testing"
)

// gatewayFiles are the gateway's sources. The gateway routes runs to
// workers and proxies their answers; the engine runs only on a worker.
var gatewayFiles = []string{
	"internal/service/gateway.go",
	"internal/service/gateway_http.go",
	"internal/service/gateway_obs.go",
}

// physicsPkgs are the packages that simulate, schedule or record a
// run; simRunners are sim's entry points that execute one.
var (
	physicsPkgs = []string{"rjms", "replay", "federation", "twin", "tsdb"}
	simRunners  = []string{"Run", "RunWith", "RunObserved"}
)

// physicsUses lists, as "file:line: package.Name", every use in the
// named files of an object declared by one of physicsPkgs or of one of
// sim's simRunners functions.
func physicsUses(m *module, files []string) []string {
	in, banned := map[string]bool{}, map[string]bool{}
	for _, f := range files {
		in[f] = true
	}
	for _, p := range physicsPkgs {
		banned[apiModule+"/internal/"+p] = true
	}
	for _, name := range simRunners {
		banned[apiModule+"/internal/sim."+name] = true
	}
	var out []string
	for id, obj := range m.info.Uses {
		pos := m.fset.Position(id.Pos())
		if !in[pos.Filename] || obj.Pkg() == nil {
			continue
		}
		pkg := obj.Pkg().Path()
		fn, isFunc := obj.(*types.Func)
		topFunc := isFunc && fn.Type().(*types.Signature).Recv() == nil
		if banned[pkg] || (topFunc && banned[pkg+"."+obj.Name()]) {
			out = append(out, fmt.Sprintf("%s:%d: %s.%s", pos.Filename, pos.Line, pkg, obj.Name()))
		}
	}
	sort.Strings(out)
	return out
}

// TestGatewayDoesNoPhysics holds the gateway to routing: its files use
// nothing from the engine's packages or the telemetry store, and never
// call sim.Run, sim.RunWith or sim.RunObserved. Request types such as
// sim.RunSpec are fine; so is the shared service code they call.
func TestGatewayDoesNoPhysics(t *testing.T) {
	m, err := repoModule()
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]bool{}
	for _, f := range m.files[apiModule+"/internal/service"] {
		checked[m.fset.Position(f.Pos()).Filename] = true
	}
	for _, f := range gatewayFiles {
		if !checked[f] {
			t.Errorf("%s is not a type-checked file of the service package", f)
		}
	}
	for _, use := range physicsUses(m, gatewayFiles) {
		t.Errorf("the gateway does physics: %s", use)
	}

	// The scan itself, on a module that breaks the rule: a physics
	// package's function and sim.RunObserved are named; sim's request
	// type and a method that happens to be called Run are not.
	bad, err := loadModule([]srcFile{
		{"internal/rjms/x.go", []byte("package rjms\nfunc New() int { return 0 }\n")},
		{"internal/sim/x.go", []byte("package sim\ntype RunSpec struct{}\nfunc (RunSpec) Run() {}\nfunc RunObserved() {}\n")},
		{"internal/service/gateway.go", []byte(`package service
import (
	"` + apiModule + `/internal/rjms"
	"` + apiModule + `/internal/sim"
)
func route(s sim.RunSpec) int { s.Run(); sim.RunObserved(); return rjms.New() }
`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/service/gateway.go:6: repro/internal/rjms.New",
		"internal/service/gateway.go:6: repro/internal/sim.RunObserved",
	}
	if got := physicsUses(bad, gatewayFiles); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("scan of a rule-breaking gateway = %v, want %v", got, want)
	}
}
