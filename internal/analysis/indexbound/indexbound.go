// Package indexbound implements the range-proved bounds check for
// decode paths: every slice index or slice-expression bound computed
// from untrusted wire input must be *provably* within the length of
// the sequence it indexes, where "provably" means the value-range
// analysis (internal/analysis/vrange) discharges the proof from the
// guards actually present — `if ix >= dlen { return err }`,
// short-circuit forms, len-equality guards, loop bounds over the same
// make, mask/modulo clamps — rather than from the syntactic presence
// of a comparison somewhere nearby.
//
// The check is interprocedural: a helper that indexes its parameter
// exports that obligation in its rangesummary fact (IndexParam), and a
// caller passing a wire-derived argument it cannot prove against the
// indexed slice inherits the finding, with the callee's site appended
// to the path. Parameter-derived unproven sites are *not* reported in
// the helper itself — they are the caller's finding, exactly like
// taintalloc's parameter taint.
//
// Scope: the hostile-input decode packages — codec, cart, archive —
// matching taintalloc/sizeoverflow.
package indexbound

import (
	"fmt"
	"go/token"

	"repro/internal/analysis"
	"repro/internal/analysis/vrange"
)

// Analyzer flags wire-derived indexes the range analysis cannot prove
// in bounds.
var Analyzer = &analysis.Analyzer{
	Name: "indexbound",
	Doc:  "indexbound: report slice indexing and slice-expression bounds on decode paths whose wire-derived value the interval analysis cannot prove within len of the indexed sequence; interprocedural via rangesummary facts",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !pass.PackageBase("codec", "cart", "archive") {
		return nil
	}
	res := vrange.Layer.Run(pass)
	for _, fn := range res.Funcs() {
		for _, site := range res.Output[fn].Sites {
			if site.Proven || !site.Deriv.FromWire() {
				continue
			}
			pass.Report(diagnose(site))
		}
	}
	return nil
}

func diagnose(site *vrange.Site) analysis.Diagnostic {
	var msg string
	if site.Callee != nil {
		via := site.Via // already the full helper chain, callee first
		if via == "" {
			via = site.Callee.Name()
		}
		msg = fmt.Sprintf(
			"wire-derived value flows into %s and is used as %s without a provable bound; check it against the length of the sequence it indexes before the call",
			via, site.Kind)
	} else {
		msg = fmt.Sprintf(
			"wire-derived value used as %s without a provable bound; compare it against the sequence length (or DecodeLimits) first",
			site.Kind)
	}
	return analysis.Diagnostic{Pos: site.Pos, Message: msg, Related: derivPath(site)}
}

// derivPath renders the site's derivation chain as related locations in
// wire-read → use order, appending the callee's site for lifted
// obligations.
func derivPath(site *vrange.Site) []analysis.RelatedLocation {
	var rel []analysis.RelatedLocation
	var lastPos token.Pos
	for _, st := range site.Deriv.Steps() {
		if st.Pos == lastPos {
			continue
		}
		rel = append(rel, analysis.RelatedLocation{Pos: st.Pos, Message: st.What})
		lastPos = st.Pos
	}
	if site.Callee != nil {
		rel = append(rel, analysis.RelatedLocation{
			Pos:      token.NoPos,
			Position: site.CalleePos.ToTokenPosition(),
			Message:  "unproven " + site.Kind + " in " + site.Callee.Name(),
		})
	}
	return rel
}
