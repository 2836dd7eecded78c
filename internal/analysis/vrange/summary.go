package vrange

import (
	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// FactName is the analyzer name range summaries are stored under in a
// FactStore; indexbound and the range-aware summary engine read it.
const FactName = "rangesummary"

// ResultRange describes one result of a function, joined over every
// return site.
type ResultRange struct {
	// Lo and Hi bound the result value (sentinels NegInf/PosInf for
	// unbounded directions).
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// MinOfParams lists parameters p with result ≤ value(p) proved at
	// every return — the clamp generalization: minInt(a, b) has both
	// parameters here, so a constant argument bounds the result.
	MinOfParams []int `json:"minOf,omitempty"`
	// Params lists parameters whose value may flow into this result
	// (derivation, not taint: guards do not remove entries).
	Params []int `json:"params,omitempty"`
	// Wire reports an untrusted wire read among the result's origins.
	Wire bool `json:"wire,omitempty"`
	// SameLenAs lists earlier result indices whose len provably equals
	// this result's len at every return (twin makes) — what lets a
	// caller prove dicts[a] from a < len(schema).
	SameLenAs []int `json:"sameLenAs,omitempty"`
}

// IndexParam marks a parameter used (possibly via callees) as a slice
// index or slice bound at a site the range analysis could not prove in
// bounds. Callers either prove their argument against the indexed
// slice (BaseParam) or, when the argument is wire-derived, report.
type IndexParam struct {
	Param int `json:"param"`
	// BaseParam is the parameter index of the indexed slice when the
	// site indexes a parameter directly (else -1): the caller can then
	// discharge the proof with arg < len(baseArg).
	BaseParam int               `json:"base"`
	Le        bool              `json:"le,omitempty"` // site allows index == len (slice bound)
	What      string            `json:"what"`
	Pos       analysis.Position `json:"pos"`
	Via       string            `json:"via,omitempty"`
}

// FuncRange is the serialized value-range summary of one function,
// keyed in a package fact by types.Func.FullName.
type FuncRange struct {
	Params      int           `json:"params"`
	Results     []ResultRange `json:"results,omitempty"`
	IndexParams []IndexParam  `json:"indexParams,omitempty"`
}

func (f *FuncRange) empty() bool {
	if len(f.IndexParams) > 0 {
		return false
	}
	for _, r := range f.Results {
		if r.Lo != NegInf || r.Hi != PosInf || r.Wire ||
			len(r.MinOfParams) > 0 || len(r.Params) > 0 || len(r.SameLenAs) > 0 {
			return false
		}
	}
	return true
}

// RLookup resolves the range summary of a callee, or nil when unknown.
type RLookup = analysis.Lookup[FuncRange]

// Result is one package's computed range summaries. Output holds the
// full engine output per function: expression intervals, index/slice-
// bound sites with proofs and derivations.
type Result = analysis.Result[FuncRange, *FuncResult]

// Layer runs the range engine over every function body, bottom-up.
var Layer = &analysis.Layer[FuncRange, *FuncResult]{
	Name: FactName,
	Engine: func(pass *analysis.Pass) analysis.Summarize[FuncRange, *FuncResult] {
		return func(n *callgraph.Node, lookup RLookup) (*FuncResult, *FuncRange) {
			e := &Engine{Fset: pass.Fset, Info: pass.TypesInfo, Lookup: lookup}
			fr := e.Run(n.Decl)
			return fr, fr.Range
		}
	},
	Empty: (*FuncRange).empty,
}

// Analyzer is the fact producer: it emits no diagnostics, only the
// "rangesummary" package fact that indexbound and the range-aware
// taintalloc/sizeoverflow upgrade consume for cross-package calls.
var Analyzer = Layer.Analyzer("rangesummary: compute per-function value-range summaries (result intervals, min-of-params clamp shapes, wire-derived results, unproven param-indexed sites) bottom-up over call-graph SCCs and export them as a package fact for the range-aware analyzers")
