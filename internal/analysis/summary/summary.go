// Package summary computes per-function dataflow summaries — the
// second rung of spartanvet's interprocedural layer, on top of
// internal/analysis/callgraph. A FuncSummary answers, for one function,
// the questions a caller-side taint analysis needs without re-analyzing
// the callee's body:
//
//   - which parameters flow into which results (ReturnFlows), and
//     whether an untrusted wire read flows into a result (Source);
//   - which parameters reach an allocation-shaped sink unguarded inside
//     the function or its callees (SinkParams) — a make size, the bound
//     of an allocating loop, bytes.Buffer.Grow, io.CopyN.
//
// Summaries are computed bottom-up over the SCCs of the package call
// graph (fixpoint iteration inside recursive components) by the
// edge-sensitive taint engine in taint.go, and serialized as the
// "funcsummary" analyzer fact so downstream packages reuse them through
// the unitchecker's vetx files without access to dependency source.
//
// The engine is range-aware: Layer computes the package's value-range
// result (internal/analysis/vrange) first, and a sink whose size
// expression has a *proved* finite upper bound is dropped — the range
// analysis discharges clamps (minInt, builtin min with a constant),
// mask/modulo reductions and guard refinements uniformly, instead of
// the syntactic clamp-shape matching earlier revisions used.
package summary

import (
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/vrange"
)

// FactName is the analyzer name summaries are stored under in a
// FactStore; taintalloc and sizeoverflow read the fact directly.
const FactName = "funcsummary"

// ReturnFlow describes one result of a function.
type ReturnFlow struct {
	// Params lists the parameter indices (receiver first for methods)
	// whose value may flow into this result.
	Params []int `json:"params,omitempty"`
	// Source reports that an untrusted wire read (varint decode and
	// friends) may flow into this result.
	Source bool `json:"source,omitempty"`
}

// SinkParam marks a parameter that reaches an allocation sink without a
// bounding comparison on the way.
type SinkParam struct {
	Param int               `json:"param"`
	What  string            `json:"what"` // e.g. "make size", "allocating loop bound"
	Pos   analysis.Position `json:"pos"`
	// Via names the chain of callees between this function and the sink
	// when the flow is itself interprocedural ("readNumericColumn").
	Via string `json:"via,omitempty"`
}

// FuncSummary is the serialized dataflow summary of one function,
// keyed in a package fact by types.Func.FullName.
type FuncSummary struct {
	Params      int          `json:"params"`
	ReturnFlows []ReturnFlow `json:"returns,omitempty"`
	SinkParams  []SinkParam  `json:"sinks,omitempty"`
}

func (s *FuncSummary) empty() bool {
	if len(s.SinkParams) > 0 {
		return false
	}
	for _, rf := range s.ReturnFlows {
		if rf.Source || len(rf.Params) > 0 {
			return false
		}
	}
	return true
}

// Lookup resolves the summary of a callee, or nil when unknown.
type Lookup = analysis.Lookup[FuncSummary]

// Result is one package's computed summaries. Output holds the final
// taint engine output per function: sink hits, narrowing conversions
// and overflow-prone products, for taintalloc and sizeoverflow to
// report.
type Result = analysis.Result[FuncSummary, *Flow]

// Layer runs the taint engine over every function body, bottom-up. It
// computes the package's value-range layer first: a sink whose size the
// interval analysis proves bounded is dropped.
var Layer = &analysis.Layer[FuncSummary, *Flow]{
	Name: FactName,
	Engine: func(pass *analysis.Pass) analysis.Summarize[FuncSummary, *Flow] {
		ranges := vrange.Layer.Run(pass)
		return func(n *callgraph.Node, lookup Lookup) (*Flow, *FuncSummary) {
			e := &Engine{Fset: pass.Fset, Info: pass.TypesInfo, Lookup: lookup, Ranges: ranges.Output[n.Func]}
			flow := e.Run(n.Decl)
			return flow, flow.Summary()
		}
	},
	Empty: (*FuncSummary).empty,
}

// Analyzer is the fact producer: it emits no diagnostics, only the
// "funcsummary" package fact that taintalloc and sizeoverflow (and any
// future bound-checking analyzer) consume for cross-package calls.
var Analyzer = Layer.Analyzer("funcsummary: compute per-function dataflow summaries (param→return flows, unguarded sink parameters, wire-source returns) bottom-up over call-graph SCCs, range-filtered through vrange, and export them as a package fact for the interprocedural analyzers")

func isIntegerKind(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
