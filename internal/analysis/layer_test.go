package analysis_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/conc"
	"repro/internal/analysis/effects"
	"repro/internal/analysis/summary"
	"repro/internal/analysis/vrange"
)

// checkPass type-checks src as package p and wraps it in a pass with an
// empty fact store.
func checkPass(t *testing.T, src string) *analysis.Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := cfg.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pass := analysis.NewPass(&analysis.Analyzer{Name: "test"}, fset, []*ast.File{f}, pkg, info, func(analysis.Diagnostic) {})
	pass.Facts = analysis.NewFactStore()
	return pass
}

// calls is a test summary: the callees whose summaries a function saw,
// plus a counter the growing layer bumps on every visit.
type calls struct {
	Seen []string `json:"seen,omitempty"`
	N    int      `json:"n,omitempty"`
}

// recorder is a layer whose engine records every callee lookup that
// resolved; grow makes each visit produce a new summary.
func recorder(moduleScoped, grow bool, visits map[string]int) *analysis.Layer[calls, int] {
	return &analysis.Layer[calls, int]{
		Name:         "calls",
		ModuleScoped: moduleScoped,
		Engine: func(*analysis.Pass) analysis.Summarize[calls, int] {
			return func(n *callgraph.Node, lookup analysis.Lookup[calls]) (int, *calls) {
				visits[n.Func.Name()]++
				sum := &calls{}
				for _, e := range n.Out {
					if e.Callee != nil && lookup(e.Callee) != nil {
						sum.Seen = append(sum.Seen, e.Callee.FullName())
					}
				}
				if grow {
					sum.N = visits[n.Func.Name()]
				}
				return visits[n.Func.Name()], sum
			}
		},
		Empty: func(s *calls) bool { return len(s.Seen) == 0 && s.N == 0 },
	}
}

const mutual = `package p

func ping(n int) int {
	if n <= 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int { return ping(n) }
`

func TestLayerFixpointBound(t *testing.T) {
	pass := checkPass(t, mutual)

	// A summary that grows on every visit never converges: the walk
	// must stop after four rounds of the recursive component.
	visits := map[string]int{}
	res := recorder(false, true, visits).Compute(pass, nil)
	if visits["ping"] != 4 || visits["pong"] != 4 {
		t.Errorf("growing layer visits = %v, want 4 rounds each", visits)
	}
	for _, fn := range res.Funcs() {
		if res.Output[fn] != 4 {
			t.Errorf("%s: output from visit %d, want the last (4)", fn.Name(), res.Output[fn])
		}
	}

	// A converging summary stops as soon as a round changes nothing:
	// the first round fills the component, the second lets the
	// function visited first see its callee, the third confirms.
	visits = map[string]int{}
	recorder(false, false, visits).Compute(pass, nil)
	if visits["ping"] != 3 || visits["pong"] != 3 {
		t.Errorf("converging layer visits = %v, want 3 rounds each", visits)
	}
}

func TestLayerNilImported(t *testing.T) {
	pass := checkPass(t, `package p

import "strings"

func local() string { return "x" }

func upper() string { return strings.ToUpper(local()) }
`)
	res := recorder(false, false, map[string]int{}).Compute(pass, nil)
	var upper, toUpper *types.Func
	for _, n := range callgraph.Build(pass.Files, pass.TypesInfo).Nodes {
		if n.Func.Name() == "upper" {
			upper = n.Func
			for _, e := range n.Out {
				if e.Callee != nil && e.Callee.FullName() == "strings.ToUpper" {
					toUpper = e.Callee
				}
			}
		}
	}
	if upper == nil || toUpper == nil {
		t.Fatal("upper or its strings.ToUpper call not found")
	}
	// The local callee resolves; the imported one is unknown.
	if got := res.ByFunc[upper].Seen; len(got) != 1 || got[0] != "p.local" {
		t.Errorf("upper saw %v, want only p.local", got)
	}
	if got := res.Lookup(toUpper); got != nil {
		t.Errorf("Lookup(strings.ToUpper) with a nil imported lookup = %+v, want nil", got)
	}
}

func TestLayerModuleScoped(t *testing.T) {
	src := `package p

import "strings"

func helper() string { return "x" }

func upper() string { return strings.ToUpper(helper()) }
`
	// Facts for a package outside the module under analysis ("p").
	seen := func(moduleScoped bool) []string {
		pass := checkPass(t, src)
		pass.Facts.Set("strings", "calls", []byte(`{"strings.ToUpper":{"n":1}}`))
		res := recorder(moduleScoped, false, map[string]int{}).Run(pass)
		for fn, s := range res.ByFunc {
			if fn.Name() == "upper" {
				return s.Seen
			}
		}
		t.Fatal("upper not summarized")
		return nil
	}
	if got := seen(false); len(got) != 2 {
		t.Errorf("unscoped layer saw %v, want the local helper and the imported fact", got)
	}
	if got := seen(true); len(got) != 1 || got[0] != "p.helper" {
		t.Errorf("module-scoped layer saw %v, want only p.helper", got)
	}

	// The filter itself: same module root resolves, another drops.
	pass := checkPass(t, src)
	helper, _ := pass.Pkg.Scope().Lookup("helper").(*types.Func)
	all := func(*types.Func) *calls { return &calls{N: 1} }
	if got := analysis.ModuleScoped("p", all)(helper); got == nil {
		t.Errorf("same-module lookup should resolve helper")
	}
	if got := analysis.ModuleScoped("repro/internal/core", all)(helper); got != nil {
		t.Errorf("cross-module lookup should be filtered, got %+v", got)
	}

	// Which shipped layers inherit only within the module.
	for _, c := range []struct {
		name   string
		scoped bool
		want   bool
	}{
		{summary.FactName, summary.Layer.ModuleScoped, false},
		{vrange.FactName, vrange.Layer.ModuleScoped, false},
		{conc.FactName, conc.Layer.ModuleScoped, true},
		{effects.FactName, effects.Layer.ModuleScoped, true},
	} {
		if c.scoped != c.want {
			t.Errorf("%s: ModuleScoped = %v, want %v", c.name, c.scoped, c.want)
		}
	}
}

// roundTrip encodes a layer's result over src, decodes the blob, and
// checks that the non-empty summary kept survives while the empty
// summary dropped is left out. It returns kept's decoded summary.
func roundTrip[S, F any](t *testing.T, l *analysis.Layer[S, F], src, kept, dropped string) *S {
	t.Helper()
	blob, err := l.Encode(l.Compute(checkPass(t, src), nil))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := analysis.DecodeFact[S](blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, ok := decoded[dropped]; ok {
		t.Errorf("empty summary %s should not be serialized", dropped)
	}
	for name, s := range decoded {
		if l.Empty(s) {
			t.Errorf("empty summary %s round-tripped", name)
		}
	}
	s, ok := decoded[kept]
	if !ok {
		t.Fatalf("%s missing from fact: %v", kept, decoded)
	}
	return s
}

func TestLayerFactRoundTrip(t *testing.T) {
	for _, c := range []struct {
		layer string
		check func(t *testing.T)
	}{
		{summary.FactName, func(t *testing.T) {
			s := roundTrip(t, summary.Layer, `package p
func alloc(n int) []byte { return make([]byte, n) }
func clean(a, b int) int { return 42 }
`, "p.alloc", "p.clean")
			if len(s.SinkParams) != 1 || s.SinkParams[0].Pos.Line == 0 {
				t.Errorf("p.alloc decoded sinks = %+v, want one with a position", s.SinkParams)
			}
		}},
		{vrange.FactName, func(t *testing.T) {
			s := roundTrip(t, vrange.Layer, `package p
func at(s []int, i int) int { return s[i] }
func clean() {}
`, "p.at", "p.clean")
			if len(s.IndexParams) != 1 || s.IndexParams[0].Param != 1 || s.IndexParams[0].Pos.Line == 0 {
				t.Errorf("p.at decoded index params = %+v, want param 1 with a position", s.IndexParams)
			}
		}},
		{conc.FactName, func(t *testing.T) {
			s := roundTrip(t, conc.Layer, `package p
import "sync"
type store struct{ mu sync.Mutex }
func (s *store) lock() { s.mu.Lock() }
func clean() {}
`, "(*p.store).lock", "p.clean")
			if len(s.NetLocks) != 1 || s.NetLocks[0].Op != "lock" || s.NetLocks[0].Path != "mu" {
				t.Errorf("lock helper decoded = %+v, want one lock on mu", s.NetLocks)
			}
		}},
		{effects.FactName, func(t *testing.T) {
			s := roundTrip(t, effects.Layer, `package p
import "time"
func clock() int64 { return time.Now().UnixNano() }
func clean() {}
`, "p.clock", "p.clean")
			if len(s.NondetResults) != 1 || s.NondetResults[0].Kind != effects.KindTime {
				t.Errorf("p.clock decoded = %+v, want one time result", s.NondetResults)
			}
		}},
	} {
		t.Run(c.layer, c.check)
	}
}

// A package whose summaries are all empty exports no fact: no layer
// persists a vacuous "{}" blob.
func TestLayerEmptyFactNotExported(t *testing.T) {
	for _, a := range []*analysis.Analyzer{summary.Analyzer, vrange.Analyzer, conc.Analyzer, effects.Analyzer} {
		pass := checkPass(t, `package p

func clean(a, b int) {}

func caller() { clean(1, 2) }
`)
		pass.Analyzer = a
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if blob := pass.Facts.Get("p", a.Name); blob != nil {
			t.Errorf("%s exported %q for a package with only empty summaries", a.Name, blob)
		}
	}
}
