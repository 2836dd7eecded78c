// Package effects computes per-function effect summaries — the fifth
// rung of spartanvet's interprocedural layer, on top of cfg, callgraph,
// summary (dataflow), vrange and conc. A FuncEffects answers, for one
// function, the two questions SPARTAN's archival-determinism and
// resource-lifecycle analyzers need without re-analyzing the body:
//
//   - which results carry a nondeterministic value (map-range iteration
//     order, the wall clock, the shared math/rand source, goroutine
//     completion order, %p / unsafe address values), and which
//     parameters the function writes to wire output (NondetResults,
//     WriteParams) — consumed by detorder;
//   - which results carry an open io.Closer, and whether the function
//     closes or stores a parameter, discharging the caller's obligation
//     (Opens, ClosesParams, StoresParams) — consumed by closeleak.
//
// Summaries are computed bottom-up over the SCCs of the package call
// graph (fixpoint iteration inside recursive components) and serialized
// as the "effectsummary" analyzer fact, so downstream packages reuse
// them through the unitchecker's vetx files without dependency source —
// the analysis.Layer plumbing the other summary layers share.
package effects

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// FactName is the analyzer name effect summaries are stored under in a
// FactStore; detorder and closeleak read the fact directly.
const FactName = "effectsummary"

// Nondeterminism kinds. Each names why a value can differ between two
// runs over identical input — the property the archival format must
// exclude from encoded bytes.
const (
	KindMapOrder  = "map-order"  // map-range iteration order
	KindChanOrder = "chan-order" // goroutine completion / channel receive order
	KindTime      = "time"       // wall clock (time.Now and friends)
	KindRand      = "rand"       // shared or unseeded math/rand source
	KindAddr      = "addr"       // address-derived value (%p, unsafe.Pointer)
)

// NondetResult marks a result (by index) that may carry a
// nondeterministic value out of the function.
type NondetResult struct {
	Result int               `json:"result"`
	Kind   string            `json:"kind"`
	Pos    analysis.Position `json:"pos"`
	// Via names the callee the nondeterminism was inherited from, when
	// the source lives in another function.
	Via string `json:"via,omitempty"`
}

// WriteParam marks a parameter (receiver first, funcsummary's index
// convention) whose value the function writes to wire output — an
// io.Writer, a hash state, binary.Write — directly or through a
// summarized callee. Callers treat a call to such a function as a sink
// for the corresponding argument.
type WriteParam struct {
	Param int               `json:"param"`
	Pos   analysis.Position `json:"pos"`
	Via   string            `json:"via,omitempty"`
}

// OpenResult marks a result that carries an open io.Closer the caller
// becomes responsible for: the function opened it (os.Open and friends,
// or a summarized opener) and returned it, or wrapped a stored handle
// in a closer-owning struct.
type OpenResult struct {
	Result int               `json:"result"`
	What   string            `json:"what"`
	Pos    analysis.Position `json:"pos"`
}

// FuncEffects is the serialized effect summary of one function, keyed
// in a package fact by types.Func.FullName.
type FuncEffects struct {
	NondetResults []NondetResult `json:"nondetResults,omitempty"`
	WriteParams   []WriteParam   `json:"writeParams,omitempty"`
	Opens         []OpenResult   `json:"opens,omitempty"`
	// ClosesParams lists parameters the function closes on some path
	// (directly, deferred, or through a summarized closer): passing an
	// open handle to it discharges the caller's obligation.
	ClosesParams []int `json:"closesParams,omitempty"`
	// StoresParams lists parameters the function stores into a struct
	// field, composite literal, map, slice or global — ownership
	// transfer: whoever holds the container is responsible now.
	StoresParams []int `json:"storesParams,omitempty"`
}

func (s *FuncEffects) empty() bool {
	return len(s.NondetResults) == 0 && len(s.WriteParams) == 0 &&
		len(s.Opens) == 0 && len(s.ClosesParams) == 0 && len(s.StoresParams) == 0
}

// closesParam reports whether calling the function closes param i.
func (s *FuncEffects) closesParam(i int) bool {
	for _, p := range s.ClosesParams {
		if p == i {
			return true
		}
	}
	return false
}

// storesParam reports whether calling the function stores param i.
func (s *FuncEffects) storesParam(i int) bool {
	for _, p := range s.StoresParams {
		if p == i {
			return true
		}
	}
	return false
}

// Lookup resolves the effect summary of a callee, or nil.
type Lookup = analysis.Lookup[FuncEffects]

// Layer summarizes every function body bottom-up. Unknown callees are
// treated as effect-free. Cross-package inheritance is module-scoped:
// the stdlib reads clocks everywhere, and inheriting those summaries
// would make every fmt caller nondeterministic.
var Layer = &analysis.Layer[FuncEffects, struct{}]{
	Name:         FactName,
	ModuleScoped: true,
	Engine: func(pass *analysis.Pass) analysis.Summarize[FuncEffects, struct{}] {
		return func(n *callgraph.Node, lookup Lookup) (struct{}, *FuncEffects) {
			return struct{}{}, computeFunc(pass.Fset, pass.TypesInfo, n.Decl, lookup)
		}
	},
	Empty: (*FuncEffects).empty,
}

// Analyzer is the fact producer: it emits no diagnostics, only the
// "effectsummary" package fact detorder and closeleak consume for
// cross-package calls.
var Analyzer = Layer.Analyzer("effectsummary: compute per-function effect summaries (nondeterminism sources reaching results, parameters written to wire output, open io.Closer results, parameters closed or stored) bottom-up over call-graph SCCs and export them as a package fact for the determinism and resource-lifecycle analyzers")

// computeFunc summarizes one function declaration: the nondeterminism
// engine supplies NondetResults and WriteParams, the resource engine
// Opens, ClosesParams and StoresParams.
func computeFunc(fset *token.FileSet, info *types.Info, decl *ast.FuncDecl, lookup Lookup) *FuncEffects {
	sum := &FuncEffects{}
	if decl.Body == nil {
		return sum
	}
	nd := analyzeNondet(fset, info, decl, lookup)
	sum.NondetResults = nd.ResultNondet
	sum.WriteParams = nd.ParamWrites
	rs := analyzeResources(fset, info, decl, lookup)
	sum.Opens = rs.Opens
	sum.ClosesParams = rs.ClosesParams
	sum.StoresParams = rs.StoresParams
	return sum
}
