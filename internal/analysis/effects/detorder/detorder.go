// Package detorder flags nondeterministic values flowing into encoded
// output. SPARTAN is an archival format: the same table plus the same
// error tolerances must produce one canonical artifact, byte for byte —
// the parallel writer is promised identical to the serial one, and
// zone-map fingerprints must be stable across runs. Any map-iteration
// order, wall-clock reading, unseeded random draw, goroutine completion
// order, or address-derived value that reaches an io.Writer, a hash
// state, binary.Write, or a summarized writer helper breaks that
// promise in a way round-trip tests only catch probabilistically.
//
// The check is built on the effects layer: per-function effect
// summaries make the flow interprocedural (a helper returning
// time.Now() taints its callers' writes through the "effectsummary"
// fact, across packages), and the canonical determinism idioms are
// recognized as sanitizers, not flagged:
//
//   - sorted keys — collecting map keys and sort.Strings/slices.Sort
//     before iterating;
//   - seeded sources — rand.New(rand.NewSource(seed)) draws are a pure
//     function of the seed;
//   - commutative accumulators — integer sum/XOR/AND/OR folds (the
//     per-segment FNV XOR) are order-independent;
//   - keyed stores — m[k] = v inside a range loop lands the same state
//     regardless of visit order;
//   - tie-broken selections — argmax guarded by a strict comparison on
//     the range key picks one winner deterministically.
//
// Each diagnostic carries the full source→sink path in Related, so the
// SARIF output shows where the nondeterminism enters and where it hits
// the wire.
package detorder

import (
	"fmt"
	"go/ast"

	"repro/internal/analysis"
	"repro/internal/analysis/effects"
)

// Analyzer flags nondeterministic values reaching encoded output.
var Analyzer = &analysis.Analyzer{
	Name: "detorder",
	Doc: "flag nondeterministic values (map order, clock, unseeded rand, completion order, addresses) flowing into encoded output\n\n" +
		"Archival bytes must be a pure function of the input table and the\n" +
		"error tolerances. Sort map keys before encoding them, seed random\n" +
		"sources from the options, fold per-segment hashes through a\n" +
		"commutative accumulator, and keep clocks and addresses out of\n" +
		"anything written, hashed, or compared in identity tests.",
	Run: run,
}

// scope: the packages that produce archival bytes. obs and server
// legitimately format clocks and counters into trace output.
var scope = []string{"codec", "archive", "core", "table", "cart", "fascicle"}

// kindNoun renders an effects kind for diagnostics.
var kindNoun = map[string]string{
	effects.KindMapOrder:  "map iteration order",
	effects.KindChanOrder: "goroutine completion order",
	effects.KindTime:      "the wall clock",
	effects.KindRand:      "an unseeded random source",
	effects.KindAddr:      "a memory address",
}

// kindFix names the sanitizer for each kind.
var kindFix = map[string]string{
	effects.KindMapOrder:  "collect and sort the keys before encoding",
	effects.KindChanOrder: "gather per-goroutine results into indexed slots and fold them in order",
	effects.KindTime:      "derive the value from the input or the options, not the clock",
	effects.KindRand:      "seed the source from the options (rand.New(rand.NewSource(seed)))",
	effects.KindAddr:      "encode a stable identifier instead of the address",
}

func run(pass *analysis.Pass) error {
	if !pass.PackageBase(scope...) {
		return nil
	}
	lookup := effects.Layer.Run(pass).Lookup
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			for _, fd := range effects.NondetFindings(pass.Fset, pass.TypesInfo, decl, lookup) {
				report(pass, fd)
			}
		}
	}
	return nil
}

func report(pass *analysis.Pass, fd effects.NondetFinding) {
	related := make([]analysis.RelatedLocation, 0, len(fd.Steps))
	for _, st := range fd.Steps {
		rl := analysis.RelatedLocation{Pos: st.Pos, Message: st.Msg}
		if !st.Pos.IsValid() {
			rl.Position = st.Position.ToTokenPosition()
		}
		related = append(related, rl)
	}
	pass.Report(analysis.Diagnostic{
		Pos: fd.Pos,
		Message: fmt.Sprintf("%s depends on %s and is %s; archive bytes must be deterministic — %s",
			fd.Var, kindNoun[fd.Kind], fd.Sink, kindFix[fd.Kind]),
		Related: related,
	})
}
