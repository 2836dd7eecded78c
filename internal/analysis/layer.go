package analysis

import (
	"encoding/json"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/callgraph"
)

// Position is a serializable source position for facts — cross-package
// sites cannot travel as token.Pos.
type Position struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// PositionOf resolves pos for storage in a fact.
func PositionOf(fset *token.FileSet, pos token.Pos) Position {
	p := fset.Position(pos)
	return Position{File: p.Filename, Line: p.Line, Col: p.Column}
}

// ToTokenPosition converts back for diagnostics.
func (p Position) ToTokenPosition() token.Position {
	return token.Position{Filename: p.File, Line: p.Line, Column: p.Col}
}

// Lookup resolves the summary of a callee, or nil when unknown.
type Lookup[S any] func(fn *types.Func) *S

// Summarize runs a layer's engine over one function. lookup resolves
// callee summaries, package-local ones first. It returns the engine's
// full per-function output and the function's summary.
type Summarize[S, F any] func(n *callgraph.Node, lookup Lookup[S]) (F, *S)

// Layer is one bottom-up summary layer: an engine that condenses each
// function into a serializable summary S, consulting the summaries of
// its callees. The layer supplies only the engine and its summary type;
// Compute owns the call-graph walk, the fixpoint inside recursive
// components, and the fact codec that carries summaries across package
// boundaries.
type Layer[S, F any] struct {
	// Name is the fact-producing analyzer's name, and the key the
	// package fact is stored under in a FactStore.
	Name string
	// ModuleScoped restricts cross-package lookups to the module of
	// the package under analysis (see ModuleScoped).
	ModuleScoped bool
	// Engine binds the engine to one package; it runs once per Compute,
	// before any function is summarized.
	Engine func(pass *Pass) Summarize[S, F]
	// Empty reports a summary that says nothing; the fact omits it.
	Empty func(*S) bool
}

// Result is one package's computed layer.
type Result[S, F any] struct {
	// ByFunc holds the summary of every function declared in the
	// package (empty summaries included).
	ByFunc map[*types.Func]*S
	// Output holds the engine's full output per function.
	Output   map[*types.Func]F
	imported Lookup[S]
}

// Lookup resolves a callee's summary: the package-local one when fn is
// declared here, else the imported one (nil when unknown).
func (r *Result[S, F]) Lookup(fn *types.Func) *S {
	if s, ok := r.ByFunc[fn]; ok {
		return s
	}
	if r.imported != nil {
		return r.imported(fn)
	}
	return nil
}

// Funcs lists the summarized functions in source order, the
// deterministic order analyzers report in.
func (r *Result[S, F]) Funcs() []*types.Func {
	fns := make([]*types.Func, 0, len(r.Output))
	for fn := range r.Output {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	return fns
}

// maxRounds bounds the fixpoint inside one recursive component.
const maxRounds = 4

// Run computes the layer over the pass's package, resolving
// cross-package callees through the pass's dependency facts.
func (l *Layer[S, F]) Run(pass *Pass) *Result[S, F] {
	imported := l.FactLookup(pass.Facts)
	if l.ModuleScoped {
		imported = ModuleScoped(pass.Pkg.Path(), imported)
	}
	return l.Compute(pass, imported)
}

// Compute builds the package call graph, orders it bottom-up by SCC,
// and runs the engine over every function body. imported resolves
// summaries of cross-package callees (nil is fine: those callees are
// unknown).
//
// Inside a recursive component, callee summaries start empty and the
// component iterates until no summary changes; summaries only grow, so
// this terminates. maxRounds bounds pathological growth: deeper mutual
// recursion than that stops refining, which only loses precision.
func (l *Layer[S, F]) Compute(pass *Pass, imported Lookup[S]) *Result[S, F] {
	g := callgraph.Build(pass.Files, pass.TypesInfo)
	summarize := l.Engine(pass)
	res := &Result[S, F]{
		ByFunc:   map[*types.Func]*S{},
		Output:   map[*types.Func]F{},
		imported: imported,
	}
	for _, scc := range g.SCCs() {
		for round := 1; ; round++ {
			changed := false
			for _, n := range scc {
				out, sum := summarize(n, res.Lookup)
				if old := res.ByFunc[n.Func]; old == nil || !sameEncoding(old, sum) {
					changed = true
				}
				res.ByFunc[n.Func] = sum
				res.Output[n.Func] = out
			}
			if !changed || round >= maxRounds {
				break
			}
		}
	}
	return res
}

// sameEncoding compares two summaries by their fact encoding, so a nil
// and an empty slice (both omitted) count as equal.
func sameEncoding[S any](a, b *S) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return string(x) == string(y)
}

// Encode serializes the non-empty summaries as the package fact body,
// keyed by types.Func.FullName. It returns nil when every summary is
// empty, so no vacuous fact is persisted.
func (l *Layer[S, F]) Encode(res *Result[S, F]) ([]byte, error) {
	byName := map[string]*S{}
	for fn, s := range res.ByFunc {
		if !l.Empty(s) {
			byName[fn.FullName()] = s
		}
	}
	if len(byName) == 0 {
		return nil, nil
	}
	return json.Marshal(byName)
}

// DecodeFact parses a fact blob produced by Encode.
func DecodeFact[S any](data []byte) (map[string]*S, error) {
	byName := map[string]*S{}
	if len(data) == 0 {
		return byName, nil
	}
	if err := json.Unmarshal(data, &byName); err != nil {
		return nil, err
	}
	return byName, nil
}

// FactLookup adapts a driver FactStore into a cross-package Lookup,
// caching each dependency's decoded fact. Safe with a nil store (every
// lookup misses).
func (l *Layer[S, F]) FactLookup(store *FactStore) Lookup[S] {
	cache := map[string]map[string]*S{}
	return func(fn *types.Func) *S {
		if fn == nil || fn.Pkg() == nil {
			return nil
		}
		path := fn.Pkg().Path()
		pkg, ok := cache[path]
		if !ok {
			pkg, _ = DecodeFact[S](store.Get(path, l.Name))
			cache[path] = pkg
		}
		return pkg[fn.FullName()]
	}
}

// ModuleScoped restricts a lookup to functions whose package shares the
// module root of pkgPath. Summaries of other modules — the standard
// library above all — describe behaviour those libraries manage
// themselves: http's per-connection goroutines, testing's tRunner, the
// clock reads behind every fmt call. Inheriting them would mark every
// transitive caller a spawner (or nondeterministic) and drown the
// repo's own signal.
func ModuleScoped[S any](pkgPath string, l Lookup[S]) Lookup[S] {
	root := moduleRoot(pkgPath)
	return func(fn *types.Func) *S {
		if fn == nil || fn.Pkg() == nil || moduleRoot(fn.Pkg().Path()) != root {
			return nil
		}
		return l(fn)
	}
}

// moduleRoot is the leading element of an import path: "repro" for
// "repro/internal/core", "testing" for "testing".
func moduleRoot(path string) string {
	root, _, _ := strings.Cut(path, "/")
	return root
}

// Analyzer returns the layer's fact producer: it emits no diagnostics,
// only the package fact the layer's consumers read for cross-package
// calls. Drivers run it over dependencies because Facts is set.
func (l *Layer[S, F]) Analyzer(doc string) *Analyzer {
	return &Analyzer{
		Name:  l.Name,
		Doc:   doc,
		Facts: true,
		Run: func(pass *Pass) error {
			blob, err := l.Encode(l.Run(pass))
			if err != nil {
				return err
			}
			pass.ExportFact(blob)
			return nil
		},
	}
}
